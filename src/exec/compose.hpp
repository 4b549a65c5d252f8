// Plan composition: merge independently lowered plans into one
// dependency graph so shards from different tensors (or different modes
// and ALS iterations) interleave on one platform.
//
// compose_graph merges per-workload *chains* of canonical mode plans into
// one plan whose all-gathers are dependency edges rather than phases.
// Chain c is an ordered sequence of links; each link is one lowered mode
// plan of the canonical shape (lane tasks, barrier, all-gather) with an
// optional trailing kHostOp appended by the caller (the ALS solve that
// consumes the gathered factor). Per link:
//  - the barrier is dropped (counted in ComposeInfo::elided_barriers):
//    ordering is carried by edges instead;
//  - the all-gather's deps are rewritten to the link's kernel tasks, so
//    it starts when its own producers finish — not when every lane of
//    every chain drains;
//  - the host op (if any) depends on the gather and on the chain's
//    previous host op;
//  - the next link's kernels gain a dep on this link's tail (host op, or
//    gather when there is none). SpillFetch/H2D tasks deliberately do
//    not: shard payloads are factor-independent, so static lanes may
//    prefetch and stream past a pending gather.
//
// Links may come from any scheduler, static lanes or kAnyGpu dispatch
// units alike; the merged plan is pipelined (copy overlaps compute).
//
// Chains must be pairwise scope-disjoint (different tensors' factors);
// links *within* one chain may overlap (successive iterations update the
// same factor buffer) because the dependency edges order them. Scopes of
// the merged plan are numbered chain-major (chain c's links contiguous);
// tasks are emitted link-major (round-robin across chains) so every
// dependency points backward and plan order is a topological order —
// which is the order the executor performs real side effects in, making
// outputs memcmp-identical to running every chain solo.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "exec/plan.hpp"

namespace amped::exec {

// What compose_graph did; returned alongside the merged plan.
struct ComposeInfo {
  std::size_t plans = 0;            // source plans (links) merged
  std::size_t elided_barriers = 0;  // barriers replaced by edges
  // Scope s of the merged plan came from link scope_chain_link[s].second
  // of chain scope_chain_link[s].first, so batch callers can attribute
  // per-scope report rows (kernel spans, gather edges) back to (tensor,
  // iteration, mode).
  std::vector<std::pair<std::size_t, std::size_t>> scope_chain_link;
};

// Consumes the inputs (tasks, kernels, and streamers are moved out; the
// sources are left empty). Throws std::invalid_argument on non-canonical
// links or overlapping chains.
Plan compose_graph(std::span<std::vector<Plan>> chains,
                   ComposeInfo* info = nullptr);

}  // namespace amped::exec
