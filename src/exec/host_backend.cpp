#include "exec/host_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/trace.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace amped::exec {

std::string to_string(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kSimulated:
      return "sim";
    case ExecBackend::kHostParallel:
      return "host";
  }
  return "?";
}

ExecBackend parse_backend(const std::string& name) {
  if (name == "sim" || name == "simulated") return ExecBackend::kSimulated;
  if (name == "host" || name == "host-parallel") {
    return ExecBackend::kHostParallel;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "' (expected: sim, host)");
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Lane-private "device global memory": the staged copy of one shard's
// records plus the span the kernel reads them through. The buffer is the
// lane's for the whole run; its first H2D sizes it for the largest
// payload the lane can stage (`reserve`), so a lane allocates once per
// run. A CUDA port swaps the buffer for a device allocation; the span
// (records + absolute base) is unchanged.
struct DeviceBuffer {
  RecordBuffer records;
  std::size_t reserve = 0;
  io::ShardStreamer::View view;
  bool valid = false;
};

// The real H2D: one memcpy of records [begin, end) of the stream view into
// `buf`. After this the kernel reads `buf`, never the stream view, so the
// view's lease can be released and its slot recycled. Any allocation the
// staging makes is counted in exec.h2d_buffer_allocations.
void stage_payload(const io::ShardStreamer::View& src, nnz_t begin,
                   nnz_t end, DeviceBuffer& buf) {
  assert(begin >= src.base && end <= src.end() &&
         "H2D payload outside its stream view");
  static metrics::Counter& allocations =
      metrics::counter("exec.h2d_buffer_allocations");
  const std::uint64_t before = buf.records.allocations();
  buf.records.reserve(buf.reserve);
  buf.view = buf.records.load(src, begin, end);
  allocations.inc(buf.records.allocations() - before);
  buf.valid = true;
}

// One GPU thread's private state and books, merged into the ExecReport
// after the thread has been joined — no concurrent writes to shared
// report state anywhere.
struct Worker {
  std::condition_variable ready;  // this thread's wait for a task's deps
  // The unit's fetched position: released once its H2D has staged the
  // payload (or, with no payload to stage, once the unit's kernel has
  // read it), so a unit never holds its slot past its kernel.
  io::ShardStreamer::Lease fetched;
  DeviceBuffer staged;
  std::vector<unsigned char> bounce_src, bounce_dst;
  double fetch = 0.0;
  double h2d = 0.0;
  double d2h = 0.0;
  double predicted_h2d = 0.0;
  // Same transfers priced at the fluid share for the lanes actually
  // streaming when each copy started (sampled from the run's live
  // counter) — the contention-model column bench_backend_validation
  // compares against wall_h2d.
  double predicted_h2d_fluid = 0.0;
  double compute = 0.0;            // measured kernel wall seconds
  double predicted_compute = 0.0;  // cost-model seconds from the closures
  std::vector<double> scope_compute;
  std::vector<std::uint64_t> scope_rows;
  // Run-clock offsets of each scope's first kernel start and last kernel
  // finish on this GPU (-1 = no kernel ran).
  std::vector<double> scope_start;
  std::vector<double> scope_finish;
};

// Dispatch units in plan order: each unit is a run of tasks through its
// closing kernel (the unit boundary the simulator's dynamic dispatch
// uses). A static lane is a queue only its GPU pulls from; the kAnyGpu
// units form one queue every GPU pulls from. Only the claim of a unit
// (the cursor's increment) runs under the shared queue's lock: its fetch,
// H2D and kernel run after it, beside the other lanes' units.
struct UnitQueue {
  std::vector<std::vector<std::size_t>> units;
  std::vector<std::size_t> open;  // the unit being built
  std::size_t next = 0;

  void add(std::size_t id, bool closes_unit) {
    open.push_back(id);
    if (closes_unit) units.push_back(std::exchange(open, {}));
  }
  void seal() {
    if (!open.empty()) units.push_back(std::exchange(open, {}));
  }
  std::size_t front() const {
    return next < units.size() ? units[next].front() : kNone;
  }
};

bool annotated(const Task& t) { return t.payload_end > t.payload_begin; }

metrics::Histogram& kernel_seconds_hist() {
  static metrics::Histogram& h =
      metrics::histogram("exec.host.kernel_seconds");
  return h;
}

// The dependency-driven executor: one instance per plan run.
class HostExecutor {
 public:
  HostExecutor(sim::Platform& platform, Plan& plan)
      : platform_(platform),
        plan_(plan),
        m_(platform.num_gpus()),
        trace_(platform.trace()),
        edges_(derive_edges(plan)),
        pending_(edges_.pending),
        waiter_(plan.tasks.size(), nullptr),
        lanes_(static_cast<std::size_t>(m_)),
        workers_(static_cast<std::size_t>(m_)),
        finished_(plan.tasks.size(), 0.0),
        ran_on_(plan.tasks.size(), -1) {
    const std::size_t scopes = plan.num_scopes();
    for (auto& w : workers_) {
      w.scope_compute.assign(scopes, 0.0);
      w.scope_rows.assign(scopes, 0);
      w.scope_start.assign(scopes, -1.0);
      w.scope_finish.assign(scopes, -1.0);
    }
    derive();
  }

  HostExecutor(const HostExecutor&) = delete;
  HostExecutor& operator=(const HostExecutor&) = delete;

  ExecReport run();

 private:
  void derive();
  bool wait_ready(std::size_t id, std::condition_variable& ready);
  void complete(std::size_t id, int gpu);
  void fail() noexcept;
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  const std::vector<std::size_t>* claim(int g);
  void run_gpu(int g);
  void run_globals();
  void run_task(std::size_t id, int gpu, double since);
  double idle_tails(std::size_t begin, std::size_t end, double at) const;
  ExecReport merge();

  double trace_now() const {
    return trace_ != nullptr ? trace_->host_now() : 0.0;
  }
  // Records one wall-clock operation on the simulator's rows: engine 0 is
  // a GPU's compute row (or the host row), engine 1 its copy row, so sim
  // and host traces of one plan render side by side. The label is built
  // only when a trace is attached.
  template <typename Label>
  void record(int device, int engine, sim::Phase phase, double start_s,
              double duration_s, Label&& label) const {
    if (trace_ == nullptr) return;
    trace_->record(sim::TraceEvent{.device = device,
                                   .engine = engine,
                                   .phase = phase,
                                   .start_s = start_s,
                                   .duration_s = duration_s,
                                   .label = label()});
  }

  sim::Platform& platform_;
  Plan& plan_;
  const int m_;
  sim::TraceLog* trace_;
  const WallTimer clock_;  // run clock: spans, finish offsets, wall_seconds
  // Live count of lanes inside a staging copy right now; each H2D samples
  // it (inclusive of itself) to price its fluid-contention prediction.
  std::atomic<int> streaming_{0};

  const PlanEdges edges_;  // the plan's edges, shared with the simulator

  // Guards the completion state below and the first error. Structured
  // cancellation: the first failure on any thread records its exception
  // and cancels the run; every thread stops at its next task boundary or
  // wait, all are joined, and the first error is rethrown.
  std::mutex mutex_;
  std::vector<std::size_t> pending_;  // unfinished deps per task
  std::vector<std::condition_variable*> waiter_;  // thread waiting per task
  std::condition_variable caller_ready_;          // the caller's wait
  std::atomic<bool> cancelled_{false};  // written under mutex_
  std::exception_ptr error_;
  std::vector<std::size_t> globals_;  // global tasks, plan order
  std::vector<UnitQueue> lanes_;      // static lane per GPU
  UnitQueue shared_;                  // kAnyGpu units
  std::mutex claim_mutex_;            // guards shared_.next
  std::vector<Worker> workers_;
  std::vector<double> finished_;  // run-clock offset when each task ended
  std::vector<int> ran_on_;       // GPU that ran each lane task
  std::vector<metrics::Counter*> dispatched_;  // kAnyGpu units per GPU
  std::size_t tail_begin_ = 0;  // first task after the latest phase
  ExecReport report_;
};

// Sorts the plan's tasks into queues before any thread starts; the edges
// come from derive_edges. Lane order on one queue needs no edges. Sizes
// each lane's staging buffer for the largest payload it can stage: its
// own lane's and every kAnyGpu unit's.
void HostExecutor::derive() {
  std::size_t shared_stage = 0;
  for (std::size_t id = 0; id < plan_.tasks.size(); ++id) {
    const Task& t = plan_.tasks[id];
    if (t.kind == TaskKind::kH2D && annotated(t)) {
      // The payload's records are as wide as the stream its fetch reads.
      for (std::size_t d : t.deps) {
        const Task& fetch = plan_.tasks[d];
        if (fetch.kind != TaskKind::kSpillFetch) continue;
        const std::size_t bytes =
            static_cast<std::size_t>(t.payload_end - t.payload_begin) *
            plan_.streamers[fetch.streamer]->layout().record_bytes();
        std::size_t& reserve =
            t.gpu == kAnyGpu
                ? shared_stage
                : workers_[static_cast<std::size_t>(t.gpu)].staged.reserve;
        reserve = std::max(reserve, bytes);
      }
    }
    if (is_global(t)) {
      globals_.push_back(id);
      continue;
    }
    if (t.gpu == kAnyGpu) {
      if (t.kind == TaskKind::kH2D && !annotated(t)) {
        throw std::invalid_argument(
            "host backend: task " + std::to_string(id) + " of plan \"" +
            plan_.scheduler +
            "\" is a kAnyGpu H2D with no payload annotation (dynamic units "
            "must stage their payload)");
      }
      // A claimed position's slot is released after its H2D, and a later
      // claim may wait for that release: fetch and staging may depend
      // only on their own unit's tasks, so every release comes.
      assert((t.kind == TaskKind::kKernel ||
              std::all_of(t.deps.begin(), t.deps.end(),
                          [&](std::size_t d) {
                            return !shared_.open.empty() &&
                                   d >= shared_.open.front();
                          })) &&
             "kAnyGpu fetch/H2D depends outside its unit");
      shared_.add(id, t.kind == TaskKind::kKernel);
    } else {
      assert(t.gpu >= 0 && t.gpu < m_ && "lane task names no GPU");
      lanes_[static_cast<std::size_t>(t.gpu)].add(
          id, t.kind == TaskKind::kKernel);
    }
  }
  shared_.seal();
  for (auto& q : lanes_) q.seal();
  for (auto& w : workers_) {
    w.staged.reserve = std::max(w.staged.reserve, shared_stage);
  }
  if (!shared_.units.empty()) {
    // Dispatch decisions are an observable the scheduler work cares
    // about; counters resolve once per run (registration locks).
    for (int g = 0; g < m_; ++g) {
      dispatched_.push_back(&metrics::counter(
          "sched.host.units_dispatched.gpu" + std::to_string(g)));
    }
  }
}

// Blocks on the calling thread's `ready` until every dep of `id` has
// completed. False = cancelled first.
bool HostExecutor::wait_ready(std::size_t id,
                              std::condition_variable& ready) {
  std::unique_lock lock(mutex_);
  waiter_[id] = &ready;
  ready.wait(lock, [&] { return pending_[id] == 0 || cancelled(); });
  return pending_[id] == 0;
}

// Publishes `id`'s completion: a dependent's waiter is woken only when
// its last dep lands, never to rescan.
void HostExecutor::complete(std::size_t id, int gpu) {
  finished_[id] = clock_.seconds();
  ran_on_[id] = gpu;
  std::lock_guard lock(mutex_);
  for (const std::size_t s : edges_.succ[id]) {
    if (--pending_[s] == 0 && waiter_[s] != nullptr) waiter_[s]->notify_one();
  }
}

// Call from a catch block. Also wakes every streamer's waiting acquires
// (they throw): a lane may have claimed a position and stopped before
// acquiring it, and a peer waiting for that position's slot would
// otherwise wait forever.
void HostExecutor::fail() noexcept {
  {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::current_exception();
    cancelled_.store(true, std::memory_order_relaxed);
  }
  for (auto& w : workers_) w.ready.notify_all();
  caller_ready_.notify_all();
  for (const auto& s : plan_.streamers) s->cancel();
}

// Claims GPU g's next unit: its own lane's or the shared queue's, whichever
// comes first in plan order. nullptr when both are drained. Only GPU g
// pulls from its own lane, so only the shared cursor needs the lock.
const std::vector<std::size_t>* HostExecutor::claim(int g) {
  UnitQueue& own = lanes_[static_cast<std::size_t>(g)];
  const std::size_t own_front = own.front();
  if (!shared_.units.empty()) {
    std::lock_guard lock(claim_mutex_);
    if (shared_.front() < own_front) {
      dispatched_[static_cast<std::size_t>(g)]->inc();
      return &shared_.units[shared_.next++];
    }
  }
  if (own_front == kNone) return nullptr;
  return &own.units[own.next++];
}

// One GPU thread: a static lane and a dynamic worker are the same loop.
void HostExecutor::run_gpu(int g) {
  Worker& w = workers_[static_cast<std::size_t>(g)];
  while (const auto* unit = claim(g)) {
    for (const std::size_t id : *unit) {
      if (cancelled()) return;
      AMPED_FAULT_POINT("host.lane");
      const double since = trace_now();
      if (!wait_ready(id, w.ready)) return;
      run_task(id, g, since);
      complete(id, g);
    }
  }
}

// The caller thread is the collective/host engine: it runs the global
// tasks in plan order as their deps land.
void HostExecutor::run_globals() {
  for (const std::size_t id : globals_) {
    const double since = trace_now();
    if (!wait_ready(id, caller_ready_)) return;
    if (edges_.phase[id]) {
      report_.wall_sync += idle_tails(tail_begin_, id, clock_.seconds());
      tail_begin_ = id + 1;
    }
    run_task(id, -1, since);
    complete(id, -1);
  }
}

// Sum over GPUs of the gap between the GPU's last lane task in
// [begin, end) and `at`. Only called once those tasks have completed.
double HostExecutor::idle_tails(std::size_t begin, std::size_t end,
                                double at) const {
  std::vector<double> last(static_cast<std::size_t>(m_), -1.0);
  for (std::size_t id = begin; id < end; ++id) {
    if (ran_on_[id] < 0) continue;
    auto& l = last[static_cast<std::size_t>(ran_on_[id])];
    l = std::max(l, finished_[id]);
  }
  double idle = 0.0;
  for (const double l : last) {
    if (l >= 0.0) idle += std::max(0.0, at - l);
  }
  return idle;
}

// The one body of every task kind. `gpu` is the executing GPU (-1 on the
// caller thread), `since` the trace time the thread began waiting for the
// task's deps.
void HostExecutor::run_task(std::size_t id, int gpu, double since) {
  Task& t = plan_.tasks[id];
  Worker* w = gpu >= 0 ? &workers_[static_cast<std::size_t>(gpu)] : nullptr;
  const double ts = trace_now();
  const WallTimer timer;
  switch (t.kind) {
    case TaskKind::kSpillFetch: {
      w->fetched = plan_.streamers[t.streamer]->acquire(t.stream_pos);
      const double el = timer.seconds();
      w->fetch += el;
      record(gpu, 1, sim::Phase::kHostCompute, ts, el,
             [&] { return "fetch pos" + std::to_string(t.stream_pos); });
      break;
    }
    case TaskKind::kH2D: {
      if (annotated(t)) {
        assert(w->fetched && "annotated H2D with no stream view");
        const int lanes = streaming_.fetch_add(1) + 1;
        stage_payload(w->fetched.view(), t.payload_begin, t.payload_end,
                      w->staged);
        streaming_.fetch_sub(1);
        w->fetched.reset();
        w->predicted_h2d += platform_.h2d_seconds(t.transfer_bytes);
        w->predicted_h2d_fluid +=
            platform_.h2d_seconds(t.transfer_bytes, lanes);
      } else {
        // No payload annotation (static lanes only): the kernel reads the
        // lane's fetched view directly, like the simulator's lanes.
        w->staged.valid = false;
        w->predicted_h2d += platform_.h2d_seconds(t.transfer_bytes);
        w->predicted_h2d_fluid += platform_.h2d_seconds(t.transfer_bytes, 1);
      }
      const double el = timer.seconds();
      w->h2d += el;
      record(gpu, 1, sim::Phase::kHostToDevice, ts, el,
             [&] { return h2d_label(t); });
      break;
    }
    case TaskKind::kD2H: {
      // Partial results already live in host memory; move the same byte
      // count through a bounce buffer so the transfer is a real copy of
      // the plan's size — the slot a device port fills with a genuine
      // device-to-host DMA.
      w->bounce_src.resize(t.transfer_bytes);
      w->bounce_dst.resize(t.transfer_bytes);
      if (t.transfer_bytes) {
        std::memcpy(w->bounce_dst.data(), w->bounce_src.data(),
                    t.transfer_bytes);
      }
      const double el = timer.seconds();
      w->d2h += el;
      record(gpu, 0, sim::Phase::kDeviceToHost, ts, el,
             [&] { return "d2h scope" + std::to_string(t.scope); });
      break;
    }
    case TaskKind::kKernel: {
      const io::ShardStreamer::View* view =
          w->staged.valid ? &w->staged.view
          : w->fetched    ? &w->fetched.view()
                          : nullptr;
      const ExecContext ctx{platform_, gpu, view};
      const double start = clock_.seconds();
      const double predicted = t.kernel(ctx);
      const double wall = timer.seconds();
      w->fetched.reset();
      w->compute += wall;
      w->predicted_compute += predicted;
      w->scope_compute[t.scope] += wall;
      w->scope_rows[t.scope] += t.owned_rows;
      if (w->scope_start[t.scope] < 0.0) w->scope_start[t.scope] = start;
      w->scope_finish[t.scope] = start + wall;
      kernel_seconds_hist().record_seconds(wall);
      // Mirrors the simulator's kernel labelling (shard grids only);
      // unlabelled kernels fall back to the phase name in the export.
      record(gpu, 0, sim::Phase::kCompute, ts, wall,
             [&] { return t.labelled ? shard_label(t) : std::string(); });
      break;
    }
    case TaskKind::kBarrier:
      // Waiting for the derived edges was the barrier.
      record(-1, 0, sim::Phase::kSync, since, ts - since,
             [] { return std::string("barrier"); });
      break;
    case TaskKind::kAllGather: {
      // Factor mirrors are shared host memory, so there is nothing to
      // exchange — the task contributes its ordering edges and its books.
      // A device port replaces this with real peer copies sized
      // scope rows[g] * row_bytes, like the simulator. The producer
      // kernels have all completed, so their row counts are final.
      const double start = clock_.seconds();
      std::uint64_t part_total = 0;
      for (const auto& pw : workers_) {
        part_total += pw.scope_rows[t.scope] * t.row_bytes;
      }
      const auto m = static_cast<std::uint64_t>(m_);
      const std::uint64_t bytes =
          m <= 1 ? 0
                 : (t.allgather == AllGatherAlgo::kHostStaged
                        ? part_total * (1 + m)
                        : part_total * (m - 1));
      const double el = timer.seconds();
      report_.wall_allgather += el;
      report_.gather_edges.push_back(
          ExecReport::GatherEdge{.scope = t.scope,
                                 .mode = t.mode,
                                 .bytes = bytes,
                                 .seconds = el,
                                 .start = start,
                                 .finish = start + el});
      record(-1, 1, sim::Phase::kPeerToPeer, ts, el, [&] {
        return "gather-edge scope" + std::to_string(t.scope) + " mode" +
               std::to_string(t.mode);
      });
      break;
    }
    case TaskKind::kHostOp: {
      t.host_op(platform_);
      const double el = timer.seconds();
      report_.wall_host_op += el;
      record(-1, 0, sim::Phase::kHostCompute, ts, el,
             [] { return std::string("host op"); });
      break;
    }
  }
}

ExecReport HostExecutor::run() {
  // One thread per GPU that has work; the caller runs the global tasks.
  // Dedicated threads, not the global pool: lane bodies block (a streamer
  // acquire waits on pool read-ahead tasks), which leaves the pool free to
  // be the streamers' read-ahead executor.
  std::vector<std::thread> threads;
  try {
    for (int g = 0; g < m_; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      if (lanes_[gi].units.empty() && gi >= shared_.units.size()) continue;
      threads.emplace_back([this, g] {
        try {
          run_gpu(g);
        } catch (...) {
          fail();
        }
        // A lane that stopped mid-unit gives its slot back.
        workers_[static_cast<std::size_t>(g)].fetched.reset();
      });
    }
    run_globals();
  } catch (...) {
    fail();
  }
  for (auto& th : threads) th.join();
  if (error_) std::rethrow_exception(error_);
  return merge();
}

ExecReport HostExecutor::merge() {
  const std::size_t scopes = plan_.num_scopes();
  const std::size_t m = workers_.size();
  report_.per_gpu_compute.assign(m, 0.0);
  report_.per_gpu_predicted_compute.assign(m, 0.0);
  report_.scope_gpu_compute.assign(scopes, std::vector<double>(m, 0.0));
  report_.scope_owned_rows.assign(scopes, std::vector<std::uint64_t>(m, 0));
  report_.scope_kernel_start.assign(scopes, -1.0);
  report_.scope_kernel_finish.assign(scopes, -1.0);
  for (std::size_t g = 0; g < m; ++g) {
    const Worker& w = workers_[g];
    report_.per_gpu_compute[g] = w.compute;
    report_.per_gpu_predicted_compute[g] = w.predicted_compute;
    report_.wall_spill_fetch += w.fetch;
    report_.wall_h2d += w.h2d;
    report_.wall_d2h += w.d2h;
    report_.predicted_h2d += w.predicted_h2d;
    report_.predicted_h2d_fluid += w.predicted_h2d_fluid;
    for (std::size_t sc = 0; sc < scopes; ++sc) {
      report_.scope_gpu_compute[sc][g] = w.scope_compute[sc];
      report_.scope_owned_rows[sc][g] = w.scope_rows[sc];
      auto& start = report_.scope_kernel_start[sc];
      if (w.scope_start[sc] >= 0.0 &&
          (start < 0.0 || w.scope_start[sc] < start)) {
        start = w.scope_start[sc];
      }
      report_.scope_kernel_finish[sc] =
          std::max(report_.scope_kernel_finish[sc], w.scope_finish[sc]);
    }
  }
  // Whatever ran after the last phase idles until the plan ends.
  const double end = clock_.seconds();
  report_.wall_sync += idle_tails(tail_begin_, plan_.tasks.size(), end);
  report_.wall_seconds = end;
  return std::move(report_);
}

}  // namespace

ExecReport run_plan_host_parallel(sim::Platform& platform, Plan& plan) {
  return HostExecutor(platform, plan).run();
}

}  // namespace amped::exec
