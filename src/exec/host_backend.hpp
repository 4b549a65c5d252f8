// Real host-parallel execution of Plans: the second PlanExecutor backend.
//
// The simulator interprets a plan against modelled clocks; this backend
// *runs* it, with one dependency-driven executor for every plan shape —
// static lanes, pipelined lanes, dynamic queues, composed batches and
// graph windows alike. Before any thread starts, the executor turns the
// plan into edges: explicit Task::deps as they are, and for each global
// task with no deps (a phase) an edge from every lane task since the
// previous phase, plus an edge from the phase to every later kernel.
// Every dep points backward in plan order, which makes the run
// deadlock-free. A task runs once its pending-dep count reaches zero.
//
// The engine/stream vocabulary maps one-to-one onto host resources,
// deliberately shaped like a future CUDA/HIP port — swap the thread for a
// stream and the staging buffer for device global memory and the
// structure is unchanged:
//
//   simulated concept          host realisation
//   ------------------------   ------------------------------------------
//   GPU (any lane semantics)   one thread per GPU that has work, pulling
//                              dispatch units (tasks through a kernel):
//                              a static lane from its own queue, kAnyGpu
//                              units from one shared cursor — bound to a
//                              GPU when admitted. Copy and compute run
//                              inline on that thread, pipelined or not
//   SpillFetch                 ShardStreamer::acquire (real disk/copy I/O)
//                              into a lease the GPU thread holds
//   H2D                        copying the shard's elements out of the
//                              stream view into a GPU-private staging
//                              tensor (the "device global memory" the
//                              kernel reads), then releasing the lease so
//                              its slot reads ahead the position two on.
//                              A kAnyGpu unit holds the shared queue's
//                              lock only to claim itself: its fetch, H2D
//                              and kernel run beside other GPUs' units
//   Kernel                     the EC kernels on the staged payload —
//                              the same closures the simulator runs, so
//                              outputs are bit-identical by construction
//   D2H                        a real buffer copy of the partial-result
//                              bytes through a GPU-private bounce buffer
//   Barrier                    its derived edges: later kernels wait for
//                              every lane task before it
//   AllGather                  a synchronisation point only: factors
//                              already live in shared host memory, so the
//                              exchange is a no-op whose dependency edges
//                              still hold — the seam where a device port
//                              would insert real peer copies
//   HostOp                     the closure
//
// Barriers, all-gathers and host ops run in plan order on the calling
// thread, the collective/host engine. A failure on any thread cancels
// the run: every thread stops at its next task boundary, all are joined,
// and the first error is rethrown.
//
// Timing: every task is measured with WallTimer and accumulated into the
// ExecReport wall_* fields; kernel closures also return the cost model's
// predicted seconds for the executing device, so one host run produces
// (measured, predicted) pairs per GPU — the data bench_backend_validation
// turns into a calibration report.
//
// Bit-identity: AMPED shards of one mode own disjoint output rows, so
// any interleaving of GPU threads (and any binding of units to GPUs)
// writes disjoint memory and produces bytes equal to the serial order.
// The executor reads no Plan flag, so it relies on this: lanes of one
// phase must own disjoint rows. Every scheduler lowering guarantees it;
// the baselines' plans, whose lanes share rows, run on the simulator.
#pragma once

#include "exec/plan.hpp"

namespace amped::exec {

// Executes `plan` for real on the host. `platform` supplies device specs
// for the cost-model queries inside kernel closures (its clocks are
// never advanced, except by the plan's own HostOp closures). Called by
// PlanExecutor::run when the backend is kHostParallel.
ExecReport run_plan_host_parallel(sim::Platform& platform, Plan& plan);

}  // namespace amped::exec
