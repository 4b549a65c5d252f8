// Execution-plan layer: one task IR + one executor for every execution
// strategy in the repo.
//
// A Plan expresses every MTTKRP schedule (static lanes, dynamic queue,
// pipelined streaming) and every baseline runner in src/baselines/ in one
// vocabulary: a list of Tasks — SpillFetch (host read-ahead hand-off),
// H2D, Kernel, D2H, Barrier, AllGather, HostOp — with explicit
// dependencies, grouped into per-GPU lanes or one shared dispatch queue.
// PlanExecutor is the only code that touches device clocks: it runs any
// plan's real arithmetic (through the kernel closures) and charges
// simulated time. Outputs are memcmp-identical to the frozen pre-engine
// loop (tests/exec_plan_test.cpp, exec/reference_loop.hpp), and on one
// GPU so are its simulated times.
//
// Both backends read the same edges (derive_edges): the explicit deps,
// plus, for a global task with no deps (a *phase*), an edge from every
// lane task since the previous phase and an edge to every later kernel.
// The simulator's one interpreter runs the plan on that graph, phase by
// phase: each GPU has a copy engine and a compute engine, kAnyGpu units
// are bound to a GPU when the shared queue admits them, and at each phase
// the modelled time is written into the device clocks before the phase
// runs on them. `Plan::pipelined` is the one timing choice a plan makes
// (copy overlaps compute, or H2D runs on the compute engine); see
// docs/SCHEDULING.md. The host backend (exec/host_backend.hpp) runs the
// same edges on real threads.
//
// A plan also names the output rows it updates (RowScope) and every task
// carries a scope index. A solo plan has one scope; composed plans
// (exec/compose.hpp) carry one scope per source plan so each all-gather
// is sized from its own scope's row ownership.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allgather.hpp"
#include "exec/backend.hpp"
#include "io/shard_stream.hpp"
#include "sim/platform.hpp"
#include "tensor/types.hpp"

namespace amped::exec {

enum class TaskKind {
  kSpillFetch,  // acquire the next shard view from a ShardStreamer
  kH2D,         // host -> device payload transfer (copy engine)
  kKernel,      // one grid: real arithmetic + simulated grid seconds
  kD2H,         // device -> host transfer (partial results)
  kBarrier,     // inter-GPU barrier
  kAllGather,   // factor-row exchange sized from runtime row ownership
  kHostOp,      // host-side step (e.g. the equal-nnz CPU merge)
};

// Tasks with this GPU id form dispatch units (consecutive kAnyGpu tasks
// through their closing kernel) that one shared queue hands to a GPU at
// run time (dynamic-queue scheduling); all other tasks name their lane.
inline constexpr int kAnyGpu = -1;

// The output rows a plan updates: the identity of the output buffer plus
// the row range touched within it. Two scopes over different buffers (or
// non-overlapping rows of the same buffer) can never write the same
// memory, which is the disjointness proof compose_graph relies on to run
// chains against each other without ordering edges.
struct RowScope {
  const void* output = nullptr;  // identity of the output buffer
  index_t row_begin = 0;         // rows [begin, end) updated within it
  index_t row_end = 0;
};

inline bool disjoint(const RowScope& a, const RowScope& b) {
  if (a.output != b.output) return true;
  return a.row_end <= b.row_begin || b.row_end <= a.row_begin;
}

// Runtime context handed to kernel closures. `view` is the shard view
// produced by the lane's most recent SpillFetch task (nullptr when the
// plan streams nothing).
struct ExecContext {
  sim::Platform& platform;
  int gpu = 0;
  const io::ShardStreamer::View* view = nullptr;
};

// Performs the real arithmetic of one grid and returns the simulated
// seconds the grid occupies the device (including launch overhead).
using KernelFn = std::function<double(const ExecContext&)>;

struct Task {
  TaskKind kind = TaskKind::kKernel;
  int gpu = kAnyGpu;
  // Index into Plan::scopes (0 for solo plans). Kernel ownership and
  // all-gather sizing are accounted per scope so composed plans keep
  // per-tensor numbers separable.
  std::size_t scope = 0;
  // Explicit dependencies (indices into Plan::tasks), each pointing
  // backward in plan order. Lane program order is an implicit dependency
  // on each engine; `deps` carries the cross-engine edges (kernel <- its
  // H2D, H2D <- its SpillFetch, graph gathers and their consumers). A
  // global task with no deps is a phase: derive_edges adds its edges
  // (every lane task before it, every kernel after it).
  std::vector<std::size_t> deps;

  // kSpillFetch: acquire position `stream_pos` of plan.streamers[streamer].
  std::size_t streamer = 0;
  std::size_t stream_pos = 0;

  // kH2D / kD2H: link payload; alloc_bytes is charged to the device
  // memory meter before the transfer (0 = no allocation tracked).
  std::uint64_t transfer_bytes = 0;
  std::uint64_t alloc_bytes = 0;
  // kH2D: the absolute nonzero range of the lane's current stream view
  // this transfer stages (begin == end when the lowering did not
  // annotate it). The simulator only needs transfer_bytes; the host
  // backend uses the range to perform the copy for real — staging
  // exactly these elements into a device buffer the kernel then reads.
  nnz_t payload_begin = 0;
  nnz_t payload_end = 0;

  // kKernel.
  KernelFn kernel;
  std::uint64_t free_bytes = 0;  // device memory released after the grid
  index_t owned_rows = 0;        // output rows this grid updates (AllGather sizing)
  // Trace metadata: when `labelled`, the executor emits the shard label
  // "grid mode<mode> idx[begin,end)" on the compute event (built only
  // when a trace is attached, like the pre-engine loop did).
  bool labelled = false;
  std::size_t mode = 0;
  // The output rows [index_begin, index_end) of the task's scope this
  // grid writes. Kernels whose ranges are pairwise disjoint may run
  // concurrently in the simulator; an empty range (index_begin ==
  // index_end, the baselines) keeps plan order.
  index_t index_begin = 0;
  index_t index_end = 0;

  // kAllGather: part_bytes[g] = rows owned by GPU g so far * row_bytes.
  AllGatherAlgo allgather = AllGatherAlgo::kRing;
  std::uint64_t row_bytes = 0;

  // kHostOp.
  std::function<void(sim::Platform&)> host_op;
};

// Trace label of a labelled kernel task ("grid mode<M> idx[b,e)"),
// matching the pre-engine loop verbatim. Shared by the simulated and
// host backends so the two traces of one plan carry identical kernel
// labels and line up row-for-row in Perfetto.
std::string shard_label(const Task& t);
// Trace label of an H2D task ("h2d scope<S> [begin,end)"), likewise shared.
std::string h2d_label(const Task& t);

struct Plan {
  std::string scheduler;  // name of the scheduler that lowered this plan
  std::size_t mode = 0;   // output mode (reporting only)
  // Copy overlaps compute: lane fetch/H2D/D2H run on the GPU's copy
  // engine, H2D is priced by the fluid host link, and a kAnyGpu unit goes
  // to the GPU whose pipeline accepts it earliest. Otherwise every lane
  // task runs on the GPU's compute engine, H2D at the static per-GPU
  // share, and a kAnyGpu unit goes to the earliest-idle GPU. Read only by
  // the simulator.
  bool pipelined = false;
  // Row-ownership scopes; Task::scope indexes this. Empty means one
  // anonymous scope (solo plans lowered before composition existed).
  std::vector<RowScope> scopes;
  std::vector<Task> tasks;
  // Shard sources owned by the plan; SpillFetch tasks index into this.
  std::vector<std::unique_ptr<io::ShardStreamer>> streamers;

  std::size_t num_scopes() const {
    return scopes.empty() ? 1 : scopes.size();
  }
};

inline bool is_global(const Task& t) {
  return t.kind == TaskKind::kBarrier || t.kind == TaskKind::kAllGather ||
         t.kind == TaskKind::kHostOp;
}

// The dependency graph both backends execute. Explicit deps are taken as
// they are. A global task with no deps is a phase: it gains an edge from
// every lane task since the previous phase, and every later kernel gains
// an edge from it (lane order on one queue needs no edges).
struct PlanEdges {
  std::vector<std::vector<std::size_t>> succ;  // dependents per task
  std::vector<std::size_t> pending;            // incoming edges per task
  std::vector<char> phase;                     // 1 = phase task
};
PlanEdges derive_edges(const Plan& plan);

// What the executor learned while running a plan.
struct ExecReport {
  // One record per executed all-gather edge, in execution order. Scope
  // rows used to aggregate gather bytes at plan end only; reporting them
  // per edge keeps per-iteration (and per-tensor) gather cost attributable
  // in composed and graph-scheduled plans (--report-json emits these).
  // `start`/`finish` are modelled timeline offsets under the simulator and
  // run-clock offsets under the host backend.
  struct GatherEdge {
    std::size_t scope = 0;
    std::size_t mode = 0;
    std::uint64_t bytes = 0;   // total bytes crossing any link
    double seconds = 0.0;      // modelled (sim) or measured (host) cost
    double start = 0.0;
    double finish = 0.0;
  };
  std::vector<GatherEdge> gather_edges;

  // Start/finish of each scope's kernel span (first kernel start, last
  // kernel finish) on the same time base as GatherEdge, for every plan
  // on both backends; -1 for scopes that ran no kernel.
  std::vector<double> scope_kernel_start;
  std::vector<double> scope_kernel_finish;

  // EC seconds charged per GPU, summed over scopes (sized to the
  // platform's GPU count; idle GPUs report 0.0). Feeds
  // ModeBreakdown::per_gpu_compute. Under the simulated backend these
  // are modelled grid seconds; under the host backend they are measured
  // wall seconds of the same kernels.
  std::vector<double> per_gpu_compute;
  // Per-scope splits of the same accounting: [scope][gpu]. Solo plans
  // have exactly one scope; composed plans report one row per source
  // plan so batch callers can attribute compute per tensor.
  std::vector<std::vector<double>> scope_gpu_compute;
  // Output rows owned per scope per GPU, accumulated from executed
  // kernels; sizes each scope's all-gather.
  std::vector<std::vector<std::uint64_t>> scope_owned_rows;

  // Host-backend measurements (all zero under the simulator). Wall
  // seconds are real elapsed time on the executing machine; the
  // predicted columns are what the cost model priced the same work at,
  // collected from the very same kernel closures, so a single host run
  // yields directly comparable (measured, predicted) pairs.
  double wall_seconds = 0.0;     // whole-plan wall time
  double wall_spill_fetch = 0.0; // summed stream-view acquisition
  double wall_h2d = 0.0;         // summed payload staging copies
  double wall_d2h = 0.0;         // summed result copy-back
  // Summed idle tails: per GPU, the gap between its last lane task before
  // each phase (or the plan end) and that phase's start (or the end).
  double wall_sync = 0.0;
  double wall_allgather = 0.0;   // summed all-gather steps
  double wall_host_op = 0.0;     // summed host-side ops
  // Modelled EC seconds per GPU for the kernels each GPU actually ran
  // (same shape as per_gpu_compute). For a deterministic (static)
  // assignment this equals the simulator's per_gpu_compute exactly.
  std::vector<double> per_gpu_predicted_compute;
  double predicted_h2d = 0.0;    // modelled seconds of the staged transfers
  // Fluid-contention prediction of the same transfers: each staged copy is
  // priced at the processor-sharing rate for the number of lanes actually
  // streaming when it started (host backend samples a live counter). The
  // static predicted_h2d column prices every transfer at the all-lanes
  // share; comparing the two against wall_h2d is how
  // bench_backend_validation validates the fluid model.
  double predicted_h2d_fluid = 0.0;
};

// Runs any plan on the platform; both backends run the plan's edges.
// `backend` selects the machine: the clock-charging simulator (default)
// or the real host-parallel executor (exec/host_backend.hpp) — same
// outputs, measured instead of modelled time.
class PlanExecutor {
 public:
  explicit PlanExecutor(sim::Platform& platform,
                        ExecBackend backend = ExecBackend::kSimulated)
      : platform_(platform), backend_(backend) {}

  ExecReport run(Plan& plan);

 private:
  sim::Platform& platform_;
  ExecBackend backend_;
};

}  // namespace amped::exec
