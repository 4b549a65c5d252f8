#include "exec/compose.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace amped::exec {

namespace {

// The link shape compose_graph accepts: lane tasks, then exactly one
// barrier and one all-gather, then optionally one host op.
bool canonical_link_shape(const Plan& plan) {
  std::size_t n = plan.tasks.size();
  if (n > 0 && plan.tasks.back().kind == TaskKind::kHostOp) --n;
  if (n < 2) return false;
  if (plan.tasks[n - 2].kind != TaskKind::kBarrier ||
      plan.tasks[n - 1].kind != TaskKind::kAllGather) {
    return false;
  }
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (is_global(plan.tasks[i])) return false;
  }
  return true;
}

}  // namespace

Plan compose_graph(std::span<std::vector<Plan>> chains, ComposeInfo* info) {
  std::size_t total_links = 0;
  std::size_t max_links = 0;
  for (const auto& chain : chains) {
    total_links += chain.size();
    max_links = std::max(max_links, chain.size());
  }
  if (total_links == 0) {
    throw std::invalid_argument("compose_graph: no links given");
  }
  for (const auto& chain : chains) {
    for (const Plan& p : chain) {
      if (p.scopes.size() > 1) {
        throw std::invalid_argument("compose_graph: link \"" + p.scheduler +
                                    "\" is already composed");
      }
      if (!canonical_link_shape(p)) {
        throw std::invalid_argument(
            "compose_graph: link \"" + p.scheduler +
            "\" is not canonical (lane tasks, barrier, all-gather[, host "
            "op])");
      }
      if (p.scopes.empty() || p.scopes.front().output == nullptr) {
        throw std::invalid_argument(
            "compose_graph: link \"" + p.scheduler +
            "\" names no output scope (disjointness unprovable)");
      }
    }
  }
  // Chains must never touch each other's outputs: the graph orders links
  // *within* a chain by edges but runs chains against each other with no
  // ordering at all.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    for (std::size_t d = 0; d < c; ++d) {
      for (const Plan& p : chains[c]) {
        for (const Plan& q : chains[d]) {
          if (!disjoint(p.scopes.front(), q.scopes.front())) {
            throw std::invalid_argument(
                "compose_graph: chains overlap (links \"" + p.scheduler +
                "\" and \"" + q.scheduler + "\" write the same rows)");
          }
        }
      }
    }
  }

  Plan out;
  out.scheduler = "graph(" + std::to_string(chains.size()) + " chains, " +
                  std::to_string(total_links) + " links)";
  out.pipelined = true;  // graph lanes always overlap copy and compute

  ComposeInfo result;
  result.plans = total_links;

  // Chain-major scope numbering; link-major task emission.
  std::vector<std::size_t> scope_base(chains.size(), 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    scope_base[c] = out.scopes.size();
    for (std::size_t l = 0; l < chains[c].size(); ++l) {
      out.scopes.push_back(chains[c][l].scopes.front());
      result.scope_chain_link.emplace_back(c, l);
    }
  }

  // Task index of each chain's most recent tail (host op, or gather when
  // the link has none): the dependency the next link's kernels gain.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> chain_tail(chains.size(), kNone);
  std::vector<std::size_t> chain_prev_hostop(chains.size(), kNone);

  for (std::size_t l = 0; l < max_links; ++l) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (l >= chains[c].size()) continue;
      Plan& p = chains[c][l];
      const std::size_t scope = scope_base[c] + l;
      const std::size_t task_base = out.tasks.size();
      const std::size_t streamer_base = out.streamers.size();
      for (auto& s : p.streamers) out.streamers.push_back(std::move(s));

      const std::size_t prev_tail = chain_tail[c];
      std::vector<std::size_t> kernels;  // new ids of this link's kernels
      std::size_t gather_id = kNone;
      for (Task& t : p.tasks) {
        if (t.kind == TaskKind::kBarrier) {
          ++result.elided_barriers;
          continue;
        }
        t.scope = scope;
        // Lane deps all point at lane tasks (which precede the barrier),
        // so the uniform offset stays valid despite the dropped barrier.
        for (auto& dep : t.deps) dep += task_base;
        if (t.kind == TaskKind::kSpillFetch) t.streamer += streamer_base;
        if (t.kind == TaskKind::kKernel && prev_tail != kNone) {
          // The factor this grid reads was rewritten by the previous
          // link's tail. Fetch/H2D stay unordered: payloads are
          // factor-independent, lanes prefetch past pending gathers.
          t.deps.push_back(prev_tail);
        }
        if (t.kind == TaskKind::kAllGather) {
          t.deps = kernels;  // gather waits for its own producers only
          gather_id = out.tasks.size();
        }
        if (t.kind == TaskKind::kHostOp) {
          t.deps.clear();
          if (gather_id != kNone) t.deps.push_back(gather_id);
          if (chain_prev_hostop[c] != kNone) {
            t.deps.push_back(chain_prev_hostop[c]);
          }
        }
        out.tasks.push_back(std::move(t));
        if (out.tasks.back().kind == TaskKind::kKernel) {
          kernels.push_back(out.tasks.size() - 1);
        }
        if (out.tasks.back().kind == TaskKind::kHostOp) {
          chain_prev_hostop[c] = out.tasks.size() - 1;
        }
      }
      chain_tail[c] = out.tasks.size() - 1;
      p.tasks.clear();
      p.streamers.clear();
      p.scopes.clear();
    }
  }

  if (info) *info = std::move(result);
  return out;
}

}  // namespace amped::exec
