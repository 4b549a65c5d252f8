#include "exec/plan.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <queue>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "exec/host_backend.hpp"
#include "sim/fluid_link.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped::exec {

std::string shard_label(const Task& t) {
  return "grid mode" + std::to_string(t.mode) + " idx[" +
         std::to_string(t.index_begin) + "," + std::to_string(t.index_end) +
         ")";
}

std::string h2d_label(const Task& t) {
  return "h2d scope" + std::to_string(t.scope) + " [" +
         std::to_string(t.payload_begin) + "," +
         std::to_string(t.payload_end) + ")";
}

PlanEdges derive_edges(const Plan& plan) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = plan.tasks.size();
  PlanEdges e;
  e.succ.resize(n);
  e.pending.assign(n, 0);
  e.phase.assign(n, 0);
  auto edge = [&](std::size_t from, std::size_t to) {
    assert(from < to && "dependency must point backward in plan order");
    e.succ[from].push_back(to);
    ++e.pending[to];
  };
  std::size_t phase = kNone;
  std::size_t phase_begin = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const Task& t = plan.tasks[id];
    for (const std::size_t d : t.deps) edge(d, id);
    if (is_global(t)) {
      if (t.deps.empty()) {
        e.phase[id] = 1;
        for (std::size_t l = phase_begin; l < id; ++l) {
          if (!is_global(plan.tasks[l])) edge(l, id);
        }
        phase = id;
        phase_begin = id + 1;
      }
      continue;
    }
    if (t.kind == TaskKind::kKernel && phase != kNone) edge(phase, id);
  }
  return e;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Total bytes an all-gather of these partitions puts on the wire, matching
// allgather_factor_rows' bookkeeping: ring and direct send every partition
// to M-1 peers; host-staged moves each partition D2H once and broadcasts
// the concatenation to all M GPUs.
std::uint64_t allgather_bytes(int m, std::span<const std::uint64_t> part_bytes,
                              AllGatherAlgo algo) {
  std::uint64_t total = 0;
  for (const auto p : part_bytes) total += p;
  if (m <= 1) return 0;
  if (algo == AllGatherAlgo::kHostStaged) {
    return total + static_cast<std::uint64_t>(m) * total;
  }
  return static_cast<std::uint64_t>(m - 1) * total;
}

// The simulator's interpreter: runs any plan on its derived edges, one
// segment (the tasks between two phases) at a time.
//
// Pass 1 runs the real side effects (streamer acquires, kernel
// arithmetic, host ops) of the segment in plan order — every dependency
// points backward, so plan order is a topological order and the
// arithmetic is memcmp-identical to running each source plan solo. A run
// of lane tasks whose kernels write pairwise disjoint rows goes to the
// host thread pool, one lane per pool task. Pass 1 also prices what does
// not depend on the timeline: kernel seconds, all-gather seconds/bytes.
// kAnyGpu units, and the global tasks that depend on them, are deferred
// to pass 2: the executing device prices a grid, and it is known only
// once the unit is bound.
//
// Pass 2 places the tasks on a modelled timeline, per engine:
//
//  - each GPU keeps a copy engine and a compute engine. A pipelined plan
//    streams the next shard's H2D on the copy engine while the current
//    grid computes, pricing every transfer on one FluidHostLink (the rate
//    reflects how many lanes actually stream during its interval); a
//    sequential plan runs its lane tasks on the compute engine, H2D at
//    the static per-GPU share;
//  - all-gathers with deps run on one serialised collective engine: a
//    gather edge starts when its producers finish and does not force
//    every device clock through a barrier;
//  - host ops with deps (ALS solves) run on the host engine at zero
//    modelled cost, ordered by their dependencies;
//  - kAnyGpu units leave one FIFO queue once every dependency outside
//    the unit has finished. A sequential plan binds the unit to the
//    earliest-idle GPU; a pipelined plan to the GPU whose pipeline
//    accepts it earliest, its H2D priced at the fluid-link rate for the
//    lanes streaming at that point. The unit's side effects then run on
//    the bound device.
//
// Each engine runs its tasks FIFO; across engines the scheduler always
// expands the earliest-starting ready task. That order is load-bearing:
// it makes fluid-link admissions nondecreasing in simulated time, so
// every transfer is priced by the lanes genuinely streaming beside it.
//
// At the end of a segment the modelled time is committed to the device
// clocks (exposed H2D, D2H, compute, gather share, then a sync to the
// segment's modelled finish), so the platform's makespan growth equals
// the modelled makespan. A phase then runs on the real clocks:
// platform.barrier(), allgather_factor_rows, or the host op itself.
class SimExecutor {
 public:
  SimExecutor(sim::Platform& platform, Plan& plan)
      : platform_(platform), plan_(plan), edges_(derive_edges(plan)) {
    const std::size_t scopes = plan.num_scopes();
    report_.per_gpu_compute.assign(mu_, 0.0);
    report_.scope_gpu_compute.assign(scopes, std::vector<double>(mu_, 0.0));
    report_.scope_owned_rows.assign(scopes,
                                    std::vector<std::uint64_t>(mu_, 0));
    report_.scope_kernel_start.assign(scopes, -1.0);
    report_.scope_kernel_finish.assign(scopes, -1.0);
    for (std::size_t id = 0; id < n_; ++id) {
      const Task& t = plan.tasks[id];
      const bool lane = !is_global(t);
      gpu_[id] = lane ? t.gpu : kAnyGpu;
      deferred_[id] = lane && t.gpu == kAnyGpu;
      for (const std::size_t d : t.deps) deferred_[id] |= deferred_[d];
      if (deferred_[id] && lane && t.gpu != kAnyGpu) {
        throw std::invalid_argument(
            "simulator: lane task " + std::to_string(id) + " of plan \"" +
            plan.scheduler + "\" depends on a kAnyGpu unit");
      }
    }
  }

  ExecReport run() {
    std::size_t begin = 0;
    for (std::size_t id = 0; id < n_; ++id) {
      if (!edges_.phase[id]) continue;
      run_segment(begin, id);
      run_phase(id);
      begin = id + 1;
    }
    run_segment(begin, n_);
    return std::move(report_);
  }

 private:
  std::vector<std::uint64_t> part_bytes(const Task& gather) const {
    std::vector<std::uint64_t> parts(mu_);
    for (std::size_t g = 0; g < mu_; ++g) {
      parts[g] = report_.scope_owned_rows[gather.scope][g] * gather.row_bytes;
    }
    return parts;
  }
  void side_effect(std::size_t id);
  void side_effects(std::size_t begin, std::size_t end);
  void run_phase(std::size_t id);
  void run_segment(std::size_t begin, std::size_t end);
  // Marks `id` expanded (finish_ is final) and releases its dependents.
  void complete(std::size_t id) {
    done_[id] = 1;
    for (const std::size_t s : edges_.succ[id]) --pending_[s];
  }
  void record(int device, int engine, sim::Phase phase, double start,
              double seconds, std::string label = {}) const {
    if (trace_ == nullptr || seconds <= 0.0) return;
    trace_->record(sim::TraceEvent{.device = device,
                                   .engine = engine,
                                   .phase = phase,
                                   .start_s = start,
                                   .duration_s = seconds,
                                   .label = std::move(label)});
  }

  sim::Platform& platform_;
  Plan& plan_;
  const PlanEdges edges_;
  const std::size_t n_ = plan_.tasks.size();
  const std::size_t mu_ = static_cast<std::size_t>(platform_.num_gpus());
  sim::TraceLog* const trace_ = platform_.trace();
  const double t0_ = platform_.makespan();  // report offsets' origin
  ExecReport report_;

  std::vector<std::size_t> pending_ = edges_.pending;  // unexpanded deps
  std::vector<char> deferred_ = std::vector<char>(n_, 0);
  std::vector<int> gpu_ = std::vector<int>(n_, kAnyGpu);  // once bound
  std::vector<double> duration_ = std::vector<double>(n_, 0.0);
  std::vector<std::uint64_t> edge_bytes_ =
      std::vector<std::uint64_t>(n_, 0);
  std::vector<double> finish_ = std::vector<double>(n_, 0.0);
  std::vector<double> not_before_ = std::vector<double>(n_, 0.0);
  std::vector<char> done_ = std::vector<char>(n_, 0);
  std::vector<std::size_t> engine_ = std::vector<std::size_t>(n_, kNone);
  // Live stream leases, one per streamer, each overwritten by the
  // streamer's next fetch: lanes of different chains interleave in plan
  // order, so the view a kernel reads is found through its H2D
  // dependency's streamer rather than "the lane's latest fetch".
  std::vector<io::ShardStreamer::Lease> leases_ =
      std::vector<io::ShardStreamer::Lease>(plan_.streamers.size());
  std::vector<std::size_t> task_streamer_ =
      std::vector<std::size_t>(n_, kNone);
  std::vector<double> ec_segment_;  // per-GPU EC seconds of the segment
};

// The real work of one task and its timeline-independent price. Kernel
// books are per-GPU slots, so lanes of different GPUs may run this
// concurrently.
void SimExecutor::side_effect(std::size_t id) {
  Task& t = plan_.tasks[id];
  switch (t.kind) {
    case TaskKind::kSpillFetch:
      leases_[t.streamer] = plan_.streamers[t.streamer]->acquire(t.stream_pos);
      task_streamer_[id] = t.streamer;
      break;
    case TaskKind::kH2D:
      if (t.alloc_bytes) platform_.gpu(gpu_[id]).alloc(t.alloc_bytes);
      for (std::size_t dep : t.deps) {
        if (task_streamer_[dep] != kNone) {
          task_streamer_[id] = task_streamer_[dep];
        }
      }
      break;
    case TaskKind::kD2H:
      duration_[id] = platform_.d2h_seconds(t.transfer_bytes);
      break;
    case TaskKind::kKernel: {
      const auto g = static_cast<std::size_t>(gpu_[id]);
      std::size_t streamer = kNone;
      for (std::size_t dep : t.deps) {
        if (task_streamer_[dep] != kNone) streamer = task_streamer_[dep];
      }
      const ExecContext ctx{
          platform_, gpu_[id],
          streamer == kNone ? nullptr : &leases_[streamer].view()};
      const double ec = t.kernel(ctx);
      if (t.free_bytes) platform_.gpu(gpu_[id]).free(t.free_bytes);
      duration_[id] = ec;
      ec_segment_[g] += ec;
      report_.per_gpu_compute[g] += ec;
      report_.scope_gpu_compute[t.scope][g] += ec;
      report_.scope_owned_rows[t.scope][g] += t.owned_rows;
      break;
    }
    case TaskKind::kAllGather: {
      // Producers precede their gather, so the scope's owned-row tally is
      // complete by the time its edge is priced.
      const auto parts = part_bytes(t);
      duration_[id] = allgather_seconds(platform_, parts, t.allgather);
      edge_bytes_[id] =
          allgather_bytes(platform_.num_gpus(), parts, t.allgather);
      break;
    }
    case TaskKind::kHostOp:
      t.host_op(platform_);
      break;
    case TaskKind::kBarrier:  // with deps: an ordering point, no work
      break;
  }
}

// Pass 1 over [begin, end): every task not deferred, in plan order. A run
// of lane tasks between two global tasks goes to the pool lane by lane
// when its kernels write pairwise disjoint rows and no streamer feeds two
// lanes; anything else (the baselines' row-less kernels) runs serially.
void SimExecutor::side_effects(std::size_t begin, std::size_t end) {
  struct Rows {
    const void* output;
    std::size_t scope;
    index_t begin, end;
    auto key() const { return std::tie(output, scope, begin); }
  };
  std::size_t id = begin;
  while (id < end) {
    if (is_global(plan_.tasks[id])) {
      if (!deferred_[id]) side_effect(id);
      ++id;
      continue;
    }
    std::size_t run_end = id;
    std::vector<std::vector<std::size_t>> lanes(mu_);
    std::vector<int> streamer_lane(plan_.streamers.size(), -1);
    std::vector<Rows> rows;
    bool parallel = true;
    for (; run_end < end && !is_global(plan_.tasks[run_end]); ++run_end) {
      const Task& t = plan_.tasks[run_end];
      if (deferred_[run_end]) continue;
      lanes[static_cast<std::size_t>(t.gpu)].push_back(run_end);
      if (t.kind == TaskKind::kSpillFetch) {
        const int owner = std::exchange(streamer_lane[t.streamer], t.gpu);
        parallel = parallel && (owner < 0 || owner == t.gpu);
      }
      if (t.kind == TaskKind::kKernel) {
        parallel = parallel && t.index_begin < t.index_end;
        const void* out =
            plan_.scopes.empty() ? nullptr : plan_.scopes[t.scope].output;
        rows.push_back({out, out ? 0 : t.scope, t.index_begin, t.index_end});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Rows& a, const Rows& b) { return a.key() < b.key(); });
    for (std::size_t r = 1; parallel && r < rows.size(); ++r) {
      parallel = rows[r - 1].output != rows[r].output ||
                 rows[r - 1].scope != rows[r].scope ||
                 rows[r - 1].end <= rows[r].begin;
    }
    const auto active = std::count_if(lanes.begin(), lanes.end(),
                                      [](const auto& l) { return !l.empty(); });
    if (parallel && active > 1 && host_parallelism() > 1) {
      std::vector<std::exception_ptr> errors(mu_);
      global_thread_pool().parallel_for(mu_, [&](std::size_t g) {
        try {
          for (const std::size_t l : lanes[g]) side_effect(l);
        } catch (...) {
          errors[g] = std::current_exception();
        }
      });
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    } else {
      for (std::size_t l = id; l < run_end; ++l) {
        if (!deferred_[l]) side_effect(l);
      }
    }
    id = run_end;
  }
}

void SimExecutor::run_phase(std::size_t id) {
  Task& t = plan_.tasks[id];
  switch (t.kind) {
    case TaskKind::kBarrier:
      platform_.barrier();
      break;
    case TaskKind::kAllGather: {
      // Sized from this scope's runtime row ownership only, so composed
      // plans exchange exactly what each source plan's kernels updated.
      const double start = platform_.makespan() - t0_;
      const AllGatherReport ag =
          allgather_factor_rows(platform_, part_bytes(t), t.allgather);
      report_.gather_edges.push_back({.scope = t.scope,
                                      .mode = t.mode,
                                      .bytes = ag.bytes_moved,
                                      .seconds = ag.seconds,
                                      .start = start,
                                      .finish = start + ag.seconds});
      break;
    }
    default:  // kHostOp
      t.host_op(platform_);
      break;
  }
  finish_[id] = platform_.makespan();
  complete(id);
}

void SimExecutor::run_segment(std::size_t begin, std::size_t end) {
  if (begin == end) return;
  const std::size_t mu = mu_;
  ec_segment_.assign(mu, 0.0);
  side_effects(begin, end);

  // ---- Pass 2. Engines: copy 0..mu-1, compute mu..2mu-1, gather, host.
  const std::size_t num_engines = 2 * mu + 2;
  const std::size_t gather_engine = 2 * mu;
  const std::size_t host_engine = gather_engine + 1;
  const bool pipelined = plan_.pipelined;
  auto engine_of = [&](std::size_t id) -> std::size_t {
    switch (plan_.tasks[id].kind) {
      case TaskKind::kKernel:
        return mu + static_cast<std::size_t>(gpu_[id]);
      case TaskKind::kAllGather:
        return gather_engine;
      case TaskKind::kHostOp:
      case TaskKind::kBarrier:
        return host_engine;
      default:  // kSpillFetch / kH2D / kD2H: the lane's copy engine
        return (pipelined ? 0 : mu) + static_cast<std::size_t>(gpu_[id]);
    }
  };
  std::vector<std::vector<std::size_t>> queue(num_engines);
  std::vector<std::size_t> head(num_engines, 0);
  std::vector<std::vector<std::size_t>> units;  // the shared queue
  for (std::size_t id = begin; id < end; ++id) {
    const Task& t = plan_.tasks[id];
    if (is_global(t) || t.gpu != kAnyGpu) {
      engine_[id] = engine_of(id);
      queue[engine_[id]].push_back(id);
    } else if (units.empty() ||
               plan_.tasks[units.back().back()].kind == TaskKind::kKernel) {
      units.push_back({id});
    } else {
      units.back().push_back(id);
    }
  }

  // Engine frontiers (absolute modelled time) and lane starting clocks.
  std::vector<double> frontier(num_engines, platform_.makespan());
  std::vector<double> lane_start(mu);
  for (std::size_t g = 0; g < mu; ++g) {
    lane_start[g] = platform_.gpu(static_cast<int>(g)).clock();
    frontier[g] = frontier[mu + g] = lane_start[g];
  }
  frontier[host_engine] = platform_.host().clock();
  const double seg_t0 = frontier[gather_engine];

  // One shared host link: every pipelined H2D is admitted at its
  // modelled start and completes at the fluid processor-sharing rate for
  // the lanes streaming alongside it.
  const auto& cfg = platform_.config();
  sim::FluidHostLink link(
      cfg.host_link.bandwidth,
      cfg.host_aggregate_bandwidth > 0.0
          ? cfg.host_aggregate_bandwidth
          : cfg.host_link.bandwidth * static_cast<double>(mu));
  const double h2d_latency =
      cfg.host_link.latency_s / platform_.fixed_cost_divisor();

  using Entry = std::pair<double, std::size_t>;  // (start, engine)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  // An engine's head enters the ready heap once all its dependencies have
  // finished; its start is final at that point (the engine frontier can't
  // move while an earlier head is still queued), so entries never go
  // stale and every pop is the globally earliest unexpanded task.
  std::vector<char> queued(num_engines, 0);
  auto enqueue_head = [&](std::size_t e) {
    if (queued[e] || head[e] >= queue[e].size()) return;
    const std::size_t id = queue[e][head[e]];
    if (pending_[id] != 0) return;
    double start = std::max(frontier[e], not_before_[id]);
    for (std::size_t dep : plan_.tasks[id].deps) {
      start = std::max(start, finish_[dep]);
    }
    queued[e] = 1;
    ready.push({start, e});
  };

  // The shared queue. reserve[e] is engine e's projected drain time,
  // counting the units bound to it that pass 2 has not expanded yet.
  std::vector<double> reserve(frontier.begin(), frontier.begin() + 2 * mu);
  std::vector<metrics::Counter*> dispatched;
  for (std::size_t g = 0; g < mu && !units.empty(); ++g) {
    dispatched.push_back(&metrics::counter("sched.sim.units_dispatched.gpu" +
                                           std::to_string(g)));
  }
  metrics::Counter* lookahead_wins =
      pipelined && !units.empty() ? &metrics::counter("sched.lookahead_wins")
                                  : nullptr;
  std::size_t next_unit = 0;
  // Admits units in order while the head's outside deps have finished,
  // no earlier than `now` (the start of the task just expanded), so
  // fluid-link admissions stay nondecreasing in time.
  auto admit = [&](double now) {
    for (; next_unit < units.size(); ++next_unit) {
      const auto& unit = units[next_unit];
      double at = now;
      for (const std::size_t id : unit) {
        for (const std::size_t d : plan_.tasks[id].deps) {
          if (std::find(unit.begin(), unit.end(), d) != unit.end()) continue;
          if (!done_[d]) return;
          at = std::max(at, finish_[d]);
        }
      }
      // Seconds of the unit's transfers at fluid-link `rate` (pipelined)
      // or at the static share.
      auto h2d_seconds = [&](std::size_t id, double rate) {
        const auto bytes = plan_.tasks[id].transfer_bytes;
        return pipelined ? h2d_latency + static_cast<double>(bytes) / rate
                         : platform_.h2d_seconds(bytes);
      };
      // Earliest-idle GPU (sequential), or the GPU whose pipeline accepts
      // the unit earliest (pipelined: H2D priced for the lanes streaming
      // when its copy would start); ties go to the lowest GPU id.
      std::size_t best = 0, greedy = 0;
      double best_key = 0.0, best_rate = 0.0;
      for (std::size_t g = 0; g < mu; ++g) {
        double key = reserve[mu + g];
        double rate = 0.0;
        if (pipelined) {
          const double copy_at = std::max(reserve[g], at);
          rate = link.rate(1 + static_cast<std::size_t>(std::count_if(
                                   reserve.begin(), reserve.begin() + mu,
                                   [&](double r) { return r > copy_at; })));
          double copy = copy_at;
          for (const std::size_t id : unit) {
            if (plan_.tasks[id].kind == TaskKind::kH2D) {
              copy += h2d_seconds(id, rate);
            }
          }
          key = std::max(key, copy);
          if (reserve[mu + g] < reserve[mu + greedy]) greedy = g;
        }
        if (g == 0 || key < best_key) {
          best = g;
          best_key = key;
          best_rate = rate;
        }
      }
      dispatched[best]->inc();
      if (lookahead_wins != nullptr && best != greedy) lookahead_wins->inc();
      // Bind, run the unit's side effects on its device, queue its tasks
      // on the device's engines and project their drain times.
      double copy = std::max(reserve[best], at);
      double compute = std::max(reserve[mu + best], at);
      for (const std::size_t id : unit) {
        const TaskKind kind = plan_.tasks[id].kind;
        gpu_[id] = static_cast<int>(best);
        not_before_[id] = at;
        side_effect(id);
        const double d =
            kind == TaskKind::kH2D ? h2d_seconds(id, best_rate) : duration_[id];
        if (kind == TaskKind::kKernel) {
          compute = std::max(compute, copy) + d;
        } else if (pipelined) {
          copy += d;
        } else {
          copy = compute += d;
        }
        engine_[id] = engine_of(id);
        queue[engine_[id]].push_back(id);
      }
      if (pipelined) reserve[best] = copy;
      reserve[mu + best] = compute;
      enqueue_head(best);
      enqueue_head(mu + best);
    }
  };

  for (std::size_t e = 0; e < num_engines; ++e) enqueue_head(e);
  admit(0.0);

  double gather_total = 0.0;
  std::vector<double> d2h_total(mu, 0.0);
  const int copy_row = pipelined ? 1 : 0;
  while (!ready.empty()) {
    const auto [start, e] = ready.top();
    ready.pop();
    queued[e] = 0;
    const std::size_t id = queue[e][head[e]];
    Task& t = plan_.tasks[id];
    if (deferred_[id] && is_global(t)) side_effect(id);
    double fin = start + duration_[id];
    switch (t.kind) {
      case TaskKind::kH2D:
        if (pipelined) {
          fin = link.completion(link.admit(start, t.transfer_bytes)) +
                h2d_latency;
        } else {
          fin = start + platform_.h2d_seconds(t.transfer_bytes);
        }
        record(gpu_[id], copy_row, sim::Phase::kHostToDevice, start,
               fin - start, trace_ != nullptr ? h2d_label(t) : "");
        break;
      case TaskKind::kD2H:
        d2h_total[static_cast<std::size_t>(gpu_[id])] += duration_[id];
        record(gpu_[id], copy_row, sim::Phase::kDeviceToHost, start,
               duration_[id]);
        break;
      case TaskKind::kKernel: {
        record(gpu_[id], 0, sim::Phase::kCompute, start, duration_[id],
               t.labelled && trace_ != nullptr ? shard_label(t) : "");
        auto& sks = report_.scope_kernel_start[t.scope];
        auto& skf = report_.scope_kernel_finish[t.scope];
        if (sks < 0.0 || start - t0_ < sks) sks = start - t0_;
        if (fin - t0_ > skf) skf = fin - t0_;
        break;
      }
      case TaskKind::kAllGather:
        gather_total += duration_[id];
        report_.gather_edges.push_back({.scope = t.scope,
                                        .mode = t.mode,
                                        .bytes = edge_bytes_[id],
                                        .seconds = duration_[id],
                                        .start = start - t0_,
                                        .finish = fin - t0_});
        record(-1, 1, sim::Phase::kPeerToPeer, start, duration_[id],
               "gather-edge scope" + std::to_string(t.scope) + " mode" +
                   std::to_string(t.mode));
        break;
      default:  // kSpillFetch, kHostOp and kBarrier carry no modelled cost
        break;
    }
    finish_[id] = fin;
    frontier[e] = fin;
    if (e < 2 * mu) reserve[e] = std::max(reserve[e], fin);
    ++head[e];
    complete(id);
    for (std::size_t d : edges_.succ[id]) {
      if (engine_[d] != kNone) enqueue_head(engine_[d]);
    }
    enqueue_head(e);
    admit(start);
  }
  assert(next_unit == units.size() && "a dispatch unit never became ready");

  double global_finish = seg_t0;
  for (std::size_t id = begin; id < end; ++id) {
    global_finish = std::max(global_finish, finish_[id]);
  }

  // Commit modelled time to the device clocks once: exposed transfer,
  // D2H, compute, the gather share (clamped so no clock overshoots the
  // segment's makespan), then a sync to its modelled finish. Traces
  // detach for the commit — the per-task events above already carry the
  // modelled timeline, and the lump-sum advances would double-count it.
  if (trace_ != nullptr) platform_.attach_trace(nullptr);
  for (std::size_t g = 0; g < mu; ++g) {
    auto& device = platform_.gpu(static_cast<int>(g));
    const double lane_finish = std::max(frontier[g], frontier[mu + g]);
    device.advance(sim::Phase::kHostToDevice,
                   std::max(0.0, lane_finish - lane_start[g] -
                                     ec_segment_[g] - d2h_total[g]));
    device.advance(sim::Phase::kDeviceToHost, d2h_total[g]);
    device.advance(sim::Phase::kCompute, ec_segment_[g]);
    const double slack = std::max(0.0, global_finish - device.clock());
    device.advance(sim::Phase::kPeerToPeer, std::min(gather_total, slack));
    device.wait_until(global_finish);
  }
  if (trace_ != nullptr) platform_.attach_trace(trace_);
}

}  // namespace

ExecReport PlanExecutor::run(Plan& plan) {
  if (backend_ == ExecBackend::kHostParallel) {
    return run_plan_host_parallel(platform_, plan);
  }
  return SimExecutor(platform_, plan).run();
}

}  // namespace amped::exec
