// End-to-end CLI driver: decompose a FROSTT `.tns` file, a binary
// `.amptns` snapshot, or a freshly generated demo tensor on the simulated
// multi-GPU platform, then save the model for downstream use.
//
//   ./decompose_file --input my_tensor.tns --rank 16 --gpus 4 --output model.ampfac
//
// Execution-engine flags (see exec/scheduler.hpp):
//   --policy cost-model           shard scheduling policy (static-greedy,
//                                 dynamic-queue, contiguous,
//                                 weighted-static, cost-model,
//                                 dynamic-lookahead; short spellings
//                                 greedy/dynamic/weighted/lookahead)
//   --allgather direct            factor exchange (ring, direct, host-staged)
//   --pipelined                   double-buffered shard streaming
//   --backend sim|host            run plans on the simulated platform
//                                 (default) or for real on host threads
//                                 (exec/host_backend.hpp)
//   --trace out.json              write a Chrome-format timeline of the
//                                 run: modelled timestamps under the sim
//                                 backend, measured wall-clock timestamps
//                                 from the GPU threads
//                                 under --backend host — same rows and
//                                 labels, so the two files render
//                                 side-by-side in Perfetto
//
// Observability flags (util/metrics.hpp):
//   --report-json out.json        write one machine-readable run report:
//                                 job config, fit/iteration result,
//                                 measured-vs-predicted per-phase times,
//                                 preprocess + fault-recovery stats,
//                                 checkpoint/resume events, and the full
//                                 metrics snapshot
//   --log-level LEVEL             stderr log threshold (error|warn|info|
//                                 debug, same as AMPED_LOG_LEVEL)
//
// Storage-engine flags:
//   --write-snapshot out.amptns   convert the input to a v2 snapshot
//                                 (later runs mmap it: no parse, no copy)
//   --memory-budget 512M          cap tracked host memory; AMPED copies
//                                 spill to disk and stream back
//
// Fault-tolerance flags (core/checkpoint.hpp, util/fault.hpp):
//   --checkpoint run.ampckp       write an atomic ALS checkpoint every
//                                 --checkpoint-every N iterations (def. 1)
//   --resume                      continue from the checkpoint if present;
//                                 the resumed run is bit-identical to an
//                                 uninterrupted one
//   --verify-resume               after the run, redo it uninterrupted
//                                 (no checkpointing) and memcmp the
//                                 factors — prints the bit-identity verdict
//   --tol X                       convergence tolerance (0 = fixed
//                                 iteration count, what --verify-resume
//                                 and the CI kill/resume drill use)
//   --faults SPEC                 arm fault-injection sites (AMPED_FAULTS
//                                 grammar), e.g. cpd.iteration:nth=5
//
// Batched mode (graph dispatch, exec/compose.hpp, docs/SCHEDULING.md):
//   ./decompose_file --batch a.tns b.tns ...
// decomposes every listed tensor in one batched run. Each dispatch lowers
// every tensor's modes as one chain and composes the chains into one
// dependency graph: the factor all-gather is an edge, not a barrier, so
// tensor A's next mode starts the moment its own factors land — even
// while tensor B's mode-d tail still drains. The run verifies the batched
// factors are bit-identical to solo execution and reports the
// batched-vs-back-to-back makespan. Without file arguments two demo
// tensors are generated.
//   --graph-window N              ALS iterations per graph dispatch
//                                 (default 1; any --policy, pipelined or
//                                 not, any --tol). A tensor that converges
//                                 inside a window still runs the window's
//                                 remaining kernels, and their output is
//                                 discarded. --report-json gains a
//                                 gather_edges array: one record per
//                                 all-gather edge with workload,
//                                 iteration, mode, bytes, start, finish.
//
// Without --input, a small demo tensor is generated and written next to
// the model so the whole I/O path is exercised.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "exec/backend.hpp"
#include "exec/scheduler.hpp"
#include "sim/trace.hpp"
#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/snapshot.hpp"
#include "tensor/factor_io.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace {

// 2 for a v2 snapshot (mmap-able), 1 for v1 (owned read), 0 for text.
int snapshot_version(const std::string& path) {
  // Only regular files can be probed (and mmapped): reading magic bytes
  // from a FIFO would consume them before the real parse.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) return 0;
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in) return 0;
  if (std::memcmp(magic, amped::io::kSnapshotMagicV2, 8) == 0) return 2;
  if (std::memcmp(magic, amped::io::kSnapshotMagicV1, 8) == 0) return 1;
  return 0;
}

// One batch input: an owned tensor (text / v1 / generated demo) or a
// zero-copy mapped v2 snapshot — the same dual the solo driver uses, so
// `--batch big.amptns ...` pays neither a parse nor a copy per input.
struct BatchInput {
  amped::CooTensor owned;
  amped::io::MappedCooTensor mapped;
  bool use_mapped = false;

  std::string shape_string() const {
    return use_mapped ? mapped.shape_string() : owned.shape_string();
  }
  bool indices_in_bounds() const {
    return use_mapped ? mapped.indices_in_bounds()
                      : owned.indices_in_bounds();
  }
  amped::AmpedTensor build(const amped::AmpedBuildOptions& options,
                           amped::PreprocessStats* stats = nullptr) const {
    return use_mapped ? amped::AmpedTensor::build(mapped, options, stats)
                      : amped::AmpedTensor::build(owned, options, stats);
  }
};

BatchInput load_batch_input(const std::string& input) {
  BatchInput out;
  switch (snapshot_version(input)) {
    case 2:
      std::printf("mapping snapshot %s (zero-copy) ...\n", input.c_str());
      out.mapped = amped::io::MappedCooTensor(input);
      out.use_mapped = true;
      break;
    case 1:
      std::printf("reading v1 snapshot %s ...\n", input.c_str());
      out.owned = amped::read_binary_file(input);
      break;
    default:
      std::printf("reading %s (parallel ingest) ...\n", input.c_str());
      out.owned = amped::read_tns_file(input);
  }
  return out;
}

// The --batch flavour of the --report-json run report: per-tensor
// results plus the batch-level schedule evidence — makespan and
// back-to-back baseline, barrier/dispatch counters, and one record per
// all-gather edge (workload, iteration, mode, bytes, start, finish) —
// the executor's per-edge gather accounting, machine-readable.
bool write_batch_report_json(const std::string& path,
                             const amped::CpdOptions& opt, int gpus,
                             const std::vector<amped::CpdResult>& batched,
                             const amped::BatchReport& report,
                             double back_to_back_seconds,
                             const amped::sim::TraceLog* trace) {
  using namespace amped;
  std::ofstream out(path);
  if (!out) return false;
  json::Writer w(out);
  w.begin_object();
  w.member("schema_version", 1);

  w.key("config").begin_object();
  w.member("batch", true);
  w.member("tensors", batched.size());
  w.member("gpus", gpus);
  w.member("rank", opt.rank);
  w.member("max_iterations", opt.max_iterations);
  w.member("tolerance", opt.tolerance);
  w.member("backend", to_string(opt.mttkrp.backend));
  w.member("policy", exec::make_scheduler(opt.mttkrp)->name());
  w.member("allgather", to_string(opt.mttkrp.allgather));
  w.member("pipelined", opt.mttkrp.pipelined_streaming);
  w.member("graph_window", opt.graph_window);
  w.end_object();

  w.key("results").begin_array();
  for (const auto& r : batched) {
    w.begin_object();
    w.member("fit", r.fit);
    w.member("iterations", r.iterations);
    w.member("converged", r.converged);
    w.member("mttkrp_seconds", r.mttkrp_sim_seconds);
    w.member("regularized_solves", r.regularized_solves);
    w.member("max_ridge", r.max_ridge);
    w.end_object();
  }
  w.end_array();

  w.key("batch").begin_object();
  w.member("makespan_seconds", report.total_seconds);
  w.member("back_to_back_seconds", back_to_back_seconds);
  w.member("elided_barriers", report.elided_barriers);
  w.member("graph_dispatches", report.graph_dispatches);
  w.end_object();

  w.key("gather_edges").begin_array();
  for (const auto& e : report.gather_edges) {
    w.begin_object();
    w.member("workload", e.workload);
    w.member("iteration", e.iteration);
    w.member("mode", e.mode);
    w.member("bytes", e.bytes);
    w.member("start", e.start);
    w.member("finish", e.finish);
    w.end_object();
  }
  w.end_array();

  if (trace != nullptr) {
    w.key("trace").begin_object();
    w.member("events", trace->events().size());
    w.member("dropped", trace->dropped());
    w.end_object();
  }

  w.key("metrics").raw(metrics::Registry::global().snapshot_json());
  w.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

// The --batch path: decompose every input in one batched run, verify
// bit-identity against solo runs, and report the makespan saving.
int run_batch(const amped::CliArgs& args, amped::CpdOptions opt, int gpus,
              const std::string& output) {
  using namespace amped;

  // `--batch a.tns b.tns`: the flag parser consumes the first file as the
  // flag's value; anything that is not a boolean literal is an input.
  std::vector<std::string> inputs;
  const std::string batch_value = args.get("batch", "true");
  if (batch_value != "true" && batch_value != "1" && batch_value != "yes") {
    inputs.push_back(batch_value);
  }
  for (const auto& p : args.positional()) inputs.push_back(p);
  std::vector<BatchInput> batch_inputs;
  try {
    if (inputs.empty()) {
      std::printf("no input files after --batch; generating two demo "
                  "tensors (demo_batch_{a,b}.tns)\n");
      GeneratorOptions gen;
      gen.dims = {600, 400, 200};
      gen.nnz = 60000;
      gen.zipf_exponents = {0.7, 0.7, 0.5};
      gen.seed = 2026;
      batch_inputs.emplace_back().owned = generate_random(gen);
      write_tns_file(batch_inputs.back().owned, "demo_batch_a.tns");
      gen.dims = {320, 480, 256};
      gen.nnz = 45000;
      gen.zipf_exponents = {0.4, 0.9, 0.3};
      gen.seed = 2027;
      batch_inputs.emplace_back().owned = generate_random(gen);
      write_tns_file(batch_inputs.back().owned, "demo_batch_b.tns");
    } else {
      for (const auto& input : inputs) {
        batch_inputs.push_back(load_batch_input(input));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  AmpedBuildOptions build;
  build.num_gpus = gpus;
  std::vector<AmpedTensor> tensors;
  std::vector<const AmpedTensor*> tensor_ptrs;
  try {
    for (std::size_t i = 0; i < batch_inputs.size(); ++i) {
      std::printf("tensor %zu: %s\n", i,
                  batch_inputs[i].shape_string().c_str());
      if (!batch_inputs[i].indices_in_bounds()) {
        std::fprintf(stderr, "error: tensor %zu indices out of bounds\n", i);
        return 1;
      }
      tensors.push_back(batch_inputs[i].build(build));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const auto& t : tensors) tensor_ptrs.push_back(&t);

  std::printf("execution: %s scheduler, %s all-gather, %s backend, "
              "%zu-tensor batch\n",
              exec::make_scheduler(opt.mttkrp)->name().c_str(),
              to_string(opt.mttkrp.allgather).c_str(),
              to_string(opt.mttkrp.backend).c_str(), tensors.size());

  auto platform = sim::make_default_platform(gpus);
  sim::TraceLog trace;
  // Batched runs add "gather-edge scope<N> mode<M>" rows to the timeline,
  // so the Perfetto view shows kernels running across an in-flight
  // gather — the overlap a per-mode barrier would forbid.
  if (args.has("trace")) platform.attach_trace(&trace);
  BatchReport report;
  const auto batched = cpd_batch(platform, tensor_ptrs, opt, &report);
  // Overlap evidence straight from the executor's timeline: a gather edge
  // is overlapped when another workload's kernels run while it is in
  // flight — exactly what a per-mode barrier would forbid.
  std::size_t overlapped = 0;
  for (const auto& e : report.gather_edges) {
    for (const auto& k : report.kernel_spans) {
      if (k.workload != e.workload && k.start < e.finish &&
          k.finish > e.start) {
        ++overlapped;
        break;
      }
    }
  }
  std::printf("graph schedule: %zu dispatch%s of a %zu-iteration window, "
              "%zu barriers elided, %zu gather edges (%zu overlapped by "
              "another tensor's kernels)\n",
              report.graph_dispatches,
              report.graph_dispatches == 1 ? "" : "es", opt.graph_window,
              report.elided_barriers, report.gather_edges.size(),
              overlapped);

  // Solo reference runs: same options, fresh platforms. The factors must
  // be bit-identical — composition may only change *when* shards run,
  // never any tensor's arithmetic.
  double solo_sum = 0.0;
  bool identical = true;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    auto solo_platform = sim::make_default_platform(gpus);
    const auto solo = cp_als(solo_platform, tensors[i], opt);
    solo_sum += solo.mttkrp_sim_seconds;
    identical = identical && solo.fit == batched[i].fit &&
                solo.iterations == batched[i].iterations &&
                solo.lambda == batched[i].lambda;
    for (std::size_t d = 0; identical && d < tensors[i].num_modes(); ++d) {
      const auto& a = solo.factors.factor(d);
      const auto& b = batched[i].factors.factor(d);
      identical = a.rows() == b.rows() && a.cols() == b.cols() &&
                  std::memcmp(a.data().data(), b.data().data(),
                              a.bytes()) == 0;
    }
  }
  if (!identical) {
    std::fprintf(stderr,
                 "error: batched outputs diverge from solo execution\n");
    return 1;
  }
  std::printf("batched factors bit-identical to solo execution\n");
  std::printf("batched MTTKRP makespan %.4f s vs back-to-back %.4f s "
              "(%.1f%% saved)\n",
              report.total_seconds, solo_sum,
              solo_sum > 0.0
                  ? (1.0 - report.total_seconds / solo_sum) * 100.0
                  : 0.0);

  for (std::size_t i = 0; i < tensors.size(); ++i) {
    std::printf("tensor %zu: CPD rank-%zu fit %.4f in %zu iterations\n", i,
                opt.rank, batched[i].fit, batched[i].iterations);
    CpdModel model;
    model.lambda = batched[i].lambda;
    model.fit = batched[i].fit;
    for (std::size_t d = 0; d < tensors[i].num_modes(); ++d) {
      model.factors.push_back(batched[i].factors.factor(d));
    }
    const auto stem = std::filesystem::path(output).stem().string();
    const auto ext = std::filesystem::path(output).extension().string();
    const auto model_path =
        (std::filesystem::path(output).parent_path() /
         (stem + "-" + std::to_string(i) + ext))
            .string();
    write_model_file(model, model_path);
    std::printf("model %zu saved to %s\n", i, model_path.c_str());
  }
  if (args.has("trace")) {
    const std::string trace_path = args.get("trace", "trace.json");
    trace.write_chrome_json_file(trace_path);
    std::printf("%s timeline written to %s (%zu events)\n",
                opt.mttkrp.backend == exec::ExecBackend::kHostParallel
                    ? "measured"
                    : "simulated",
                trace_path.c_str(), trace.events().size());
  }
  if (args.has("report-json")) {
    const std::string report_path = args.get("report-json", "report.json");
    if (!write_batch_report_json(report_path, opt, gpus, batched, report,
                                 solo_sum,
                                 args.has("trace") ? &trace : nullptr)) {
      std::fprintf(stderr, "error: cannot write run report to %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("batch run report written to %s\n", report_path.c_str());
  }
  return 0;
}

// The --report-json run report: everything a CI job or a notebook needs
// to judge a run without scraping stdout. Top-level keys (strict JSON,
// schema_version bumps when a key changes meaning):
//   config       effective job configuration after flag parsing
//   result       fit / iterations / convergence / total MTTKRP seconds,
//                ridge-regularised solves and the largest ridge used
//   phases       measured seconds per phase, with the cost model's
//                prediction alongside where the model prices that phase
//                (sim backend: prediction == measurement by construction)
//   preprocess   build wall time and its sort / spill-write layers,
//                bytes, spill + fault-recovery counts
//   fault_recovery  process-wide recovery counters (build + streaming)
//   checkpoint   checkpoints written, resume events
//   trace        event/dropped counts (present only when --trace ran)
//   metrics      the full registry snapshot (util/metrics.hpp schema)
bool write_report_json(const std::string& path, const amped::CliArgs& args,
                       const amped::CpdOptions& opt, int gpus,
                       const amped::PreprocessStats& prep,
                       const amped::CpdResult& result,
                       const amped::sim::TraceLog* trace) {
  using namespace amped;
  std::ofstream out(path);
  if (!out) return false;
  json::Writer w(out);
  w.begin_object();
  w.member("schema_version", 1);

  w.key("config").begin_object();
  w.member("input", args.get("input", "demo_tensor.tns"));
  w.member("gpus", gpus);
  w.member("rank", opt.rank);
  w.member("max_iterations", opt.max_iterations);
  w.member("tolerance", opt.tolerance);
  w.member("backend", to_string(opt.mttkrp.backend));
  w.member("policy", exec::make_scheduler(opt.mttkrp)->name());
  w.member("allgather", to_string(opt.mttkrp.allgather));
  w.member("pipelined", opt.mttkrp.pipelined_streaming);
  w.member("checkpoint_path", opt.checkpoint_path);
  w.member("resume", opt.resume);
  w.end_object();

  w.key("result").begin_object();
  w.member("fit", result.fit);
  w.member("iterations", result.iterations);
  w.member("converged", result.converged);
  w.member("mttkrp_seconds", result.mttkrp_sim_seconds);
  w.member("regularized_solves", result.regularized_solves);
  w.member("max_ridge", result.max_ridge);
  w.end_object();

  w.key("phases").begin_object();
  w.key("compute").begin_object();
  w.member("measured_seconds", result.compute_seconds);
  w.member("predicted_seconds", result.predicted_compute_seconds);
  w.end_object();
  w.key("h2d").begin_object();
  w.member("measured_seconds", result.h2d_seconds);
  w.member("predicted_seconds", result.predicted_h2d_seconds);
  w.end_object();
  w.key("p2p").begin_object();
  w.member("measured_seconds", result.p2p_seconds);
  w.member("gather_bytes", result.gather_bytes);
  w.end_object();
  w.key("sync").begin_object();
  w.member("measured_seconds", result.sync_seconds);
  w.end_object();
  w.end_object();

  w.key("preprocess").begin_object();
  w.member("wall_seconds", prep.wall_seconds);
  w.member("sort_seconds", prep.sort_seconds);
  w.member("spill_write_seconds", prep.spill_write_seconds);
  w.member("post_sort_seconds", prep.post_sort_seconds);
  w.member("spill_commit_wait_seconds", prep.spill_commit_wait_seconds);
  w.member("bytes_built", prep.bytes_built);
  w.member("spilled", prep.spilled);
  w.member("spill_retries", prep.spill_retries);
  w.member("spill_rebuilds", prep.spill_rebuilds);
  w.member("degraded_to_resident", prep.degraded_to_resident);
  w.end_object();

  // Process-wide recovery counters: unlike the preprocess block above
  // (build-time only) these include retries/rebuilds hit while streaming
  // shards during the solve.
  w.key("fault_recovery").begin_object();
  w.member("spill_retries", metrics::counter("stream.spill_retries").value());
  w.member("spill_rebuilds",
           metrics::counter("stream.spill_rebuilds").value());
  w.member("degraded_to_resident",
           metrics::counter("build.degraded_to_resident").value());
  w.end_object();

  w.key("checkpoint").begin_object();
  w.member("checkpoints_written", result.checkpoints_written);
  w.member("resumed", result.resumed);
  w.member("resume_iteration", result.resume_iteration);
  w.end_object();

  if (trace != nullptr) {
    w.key("trace").begin_object();
    w.member("events", trace->events().size());
    w.member("dropped", trace->dropped());
    w.end_object();
  }

  w.key("metrics").raw(metrics::Registry::global().snapshot_json());
  w.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amped;
  CliArgs args(argc, argv);
  args.require_known_flags(
      {"batch", "checkpoint", "checkpoint-every", "gpus", "graph-window",
       "input", "iters", "output", "rank", "report-json", "resume", "tol",
       "trace", "verify-resume", "write-snapshot"},
      CommonFlags::kWithMttkrp);
  CpdOptions opt;
  apply_common_flags(args, &opt.mttkrp);
  const int gpus = static_cast<int>(args.get_int("gpus", 4));
  const std::int64_t rank_arg = args.get_int("rank", 16);
  if (rank_arg <= 0) {
    AMPED_LOG_ERROR << "--rank must be >= 1 (got " << rank_arg << ")";
    std::fprintf(stderr, "error: --rank must be >= 1 (got %lld)\n",
                 static_cast<long long>(rank_arg));
    return 1;
  }
  // Tiled dispatch serves any rank, but factor matrices and CPD gram
  // products grow linearly/quadratically with it; past this point the
  // run is almost certainly a typo rather than a real decomposition.
  constexpr std::int64_t kSoftRankCap = 1024;
  if (rank_arg > kSoftRankCap) {
    AMPED_LOG_WARN << "--rank " << rank_arg << " exceeds the soft cap of "
                   << kSoftRankCap
                   << "; proceeding, but expect large memory use";
  }
  const auto rank = static_cast<std::size_t>(rank_arg);
  const auto iters = static_cast<std::size_t>(args.get_int("iters", 15));
  const std::string output = args.get("output", "model.ampfac");
  const bool host_backend =
      opt.mttkrp.backend == exec::ExecBackend::kHostParallel;

  // Checkpoint/restart knobs apply to both the solo and the batch path
  // (cpd_batch appends ".<index>" per tensor).
  opt.tolerance = args.get_double("tol", opt.tolerance);
  opt.checkpoint_path = args.get("checkpoint", "");
  opt.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 1));
  opt.resume = args.get_bool("resume", false);

  if (args.has("batch")) {
    opt.rank = rank;
    opt.max_iterations = iters;
    const std::int64_t window = args.get_int("graph-window", 1);
    if (window <= 0) {
      std::fprintf(stderr, "error: --graph-window must be >= 1 (got %lld)\n",
                   static_cast<long long>(window));
      return 1;
    }
    opt.graph_window = static_cast<std::size_t>(window);
    return run_batch(args, opt, gpus, output);
  }

  // The tensor arrives as either an owned CooTensor (text input or
  // generated demo) or a zero-copy mapped snapshot — the same loader the
  // batch path uses, so format dispatch lives in one place.
  BatchInput in;
  try {
    if (args.has("input")) {
      in = load_batch_input(args.get("input", ""));
    } else {
      std::printf("no --input given; generating a demo tensor "
                  "(demo_tensor.tns)\n");
      GeneratorOptions gen;
      gen.dims = {600, 400, 200};
      gen.nnz = 60000;
      gen.zipf_exponents = {0.7, 0.7, 0.5};
      gen.seed = 2026;
      in.owned = generate_random(gen);
      write_tns_file(in.owned, "demo_tensor.tns");
    }

    if (args.has("write-snapshot")) {
      const std::string snap = args.get("write-snapshot", "");
      if (in.use_mapped) {
        io::write_snapshot_file(in.mapped.materialize(), snap);
      } else {
        io::write_snapshot_file(in.owned, snap);  // no copy of the owned tensor
      }
      std::printf("snapshot written to %s (%s); pass it as --input to "
                  "reload without parsing\n",
                  snap.c_str(),
                  io::format_bytes(std::filesystem::file_size(snap))
                      .c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("tensor: %s\n", in.shape_string().c_str());
  if (!in.indices_in_bounds()) {
    std::fprintf(stderr, "error: tensor indices out of bounds\n");
    return 1;
  }

  auto& budget = io::HostMemoryBudget::global();
  if (budget.limit() != 0) {
    std::printf("memory budget: %s\n",
                io::format_bytes(budget.limit()).c_str());
  }

  AmpedBuildOptions build;
  build.num_gpus = gpus;
  PreprocessStats prep;
  AmpedTensor tensor;
  try {
    tensor = in.build(build, &prep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("preprocessed %zu modes in %.2fs wall; copies %s (%s)\n",
              tensor.num_modes(), prep.wall_seconds,
              prep.spilled ? "spilled to disk" : "resident in host memory",
              io::format_bytes(tensor.total_bytes()).c_str());

  auto platform = sim::make_default_platform(gpus);
  sim::TraceLog trace;
  // Both backends feed the same trace: the simulator records modelled
  // timestamps, the host backend records wall clock from its GPU threads
  // (exec/host_backend.cpp reads platform.trace()).
  if (args.has("trace")) platform.attach_trace(&trace);
  opt.rank = rank;
  opt.max_iterations = iters;
  // The scheduler name is the effective configuration: dynamic-queue
  // streams sequentially even under --pipelined, and the name says so.
  std::printf("execution: %s scheduler, %s all-gather, %s backend\n",
              exec::make_scheduler(opt.mttkrp)->name().c_str(),
              to_string(opt.mttkrp.allgather).c_str(),
              to_string(opt.mttkrp.backend).c_str());
  CpdResult result;
  try {
    result = cp_als(platform, tensor, opt);
  } catch (const std::exception& e) {
    // A mid-run failure (injected fault, I/O error, numeric blow-up) is a
    // clean exit: with --checkpoint the newest checkpoint survives and a
    // --resume rerun continues from it.
    std::fprintf(stderr, "error: %s\n", e.what());
    if (!opt.checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "rerun with --resume to continue from the last "
                   "checkpoint at %s\n", opt.checkpoint_path.c_str());
    }
    return 1;
  }
  if (!opt.checkpoint_path.empty()) {
    std::printf("checkpointing every %zu iteration%s to %s%s\n",
                opt.checkpoint_every, opt.checkpoint_every == 1 ? "" : "s",
                opt.checkpoint_path.c_str(),
                opt.resume ? " (resumed if present)" : "");
  }
  if (host_backend) {
    std::printf("CPD rank-%zu: fit %.4f in %zu iterations (measured MTTKRP "
                "wall %.4f s on %d host lane%s)\n",
                rank, result.fit, result.iterations,
                result.mttkrp_sim_seconds, gpus, gpus == 1 ? "" : "s");
  } else {
    std::printf("CPD rank-%zu: fit %.4f in %zu iterations (simulated MTTKRP "
                "%.4f s on %d GPU%s)\n",
                rank, result.fit, result.iterations,
                result.mttkrp_sim_seconds, gpus, gpus == 1 ? "" : "s");
  }
  if (args.get_bool("verify-resume", false)) {
    // Redo the whole decomposition uninterrupted (fresh platform, no
    // checkpointing) and compare bitwise — the proof that a killed and
    // resumed run converged to the exact same model.
    CpdOptions verify = opt;
    verify.checkpoint_path.clear();
    verify.resume = false;
    auto verify_platform = sim::make_default_platform(gpus);
    const CpdResult redo = cp_als(verify_platform, tensor, verify);
    bool identical = redo.fit == result.fit &&
                     redo.iterations == result.iterations &&
                     redo.lambda == result.lambda;
    for (std::size_t d = 0; identical && d < tensor.num_modes(); ++d) {
      const auto& a = redo.factors.factor(d);
      const auto& b = result.factors.factor(d);
      identical = a.rows() == b.rows() && a.cols() == b.cols() &&
                  std::memcmp(a.data().data(), b.data().data(),
                              a.bytes()) == 0;
    }
    if (!identical) {
      std::fprintf(stderr,
                   "error: resumed run diverges from an uninterrupted "
                   "run\n");
      return 1;
    }
    std::printf("resume verified: factors bit-identical to an "
                "uninterrupted run\n");
  }
  if (args.has("trace")) {
    const std::string trace_path = args.get("trace", "trace.json");
    trace.write_chrome_json_file(trace_path);
    std::printf("%s timeline written to %s (%zu events)\n",
                host_backend ? "measured" : "simulated", trace_path.c_str(),
                trace.events().size());
  }
  if (args.has("report-json")) {
    const std::string report_path = args.get("report-json", "report.json");
    if (!write_report_json(report_path, args, opt, gpus, prep, result,
                           args.has("trace") ? &trace : nullptr)) {
      std::fprintf(stderr, "error: cannot write run report to %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("run report written to %s\n", report_path.c_str());
  }
  if (budget.limit() != 0) {
    std::printf("tracked host memory peak: %s of %s budget\n",
                io::format_bytes(budget.peak()).c_str(),
                io::format_bytes(budget.limit()).c_str());
  }

  CpdModel model;
  model.lambda = result.lambda;
  model.fit = result.fit;
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    model.factors.push_back(result.factors.factor(d));
  }
  try {
    write_model_file(model, output);
    // A device or FIFO (--output /dev/null) takes the bytes but has no
    // size and cannot be read back.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(output, ec)) {
      std::printf("model written to %s, not a regular file: size and "
                  "checkpoint verification skipped\n",
                  output.c_str());
      return 0;
    }
    std::printf("model saved to %s (%ju bytes)\n", output.c_str(),
                static_cast<std::uintmax_t>(
                    std::filesystem::file_size(output)));

    // Round-trip sanity so users can trust the checkpoint.
    const auto back = read_model_file(output);
    std::printf("checkpoint verified: %zu factor matrices, fit %.4f\n",
                back.factors.size(), back.fit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: saving the model to %s: %s\n",
                 output.c_str(), e.what());
    return 1;
  }
  return 0;
}
