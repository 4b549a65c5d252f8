// Deterministic fault injection and transient-I/O retry: the testing
// substrate of the robustness layer.
//
// Production code marks failure-prone spots with AMPED_FAULT_POINT("name")
// — a named *injection site*. Sites are inert by default: the macro is one
// relaxed atomic load when nothing is armed, so shipping the hooks costs
// nothing. Tests (and chaos runs) arm sites with a trigger policy:
//
//   fault::arm("spill.write", {.nth = 1, .times = 2, .transient = true});
//
// fires a retryable TransientError on the first two passes through the
// site and then goes quiet — exactly the shape a retry loop must survive.
// Policies are either deterministic (fire on calls [nth, nth + times)) or
// probabilistic with a fixed seed (each pass consults a per-site PRNG), so
// every injected failure is reproducible.
//
// Configuration also comes from the environment / CLI:
//
//   AMPED_FAULTS="spill.write:nth=1:times=2:transient,stream.readahead:prob=0.01:seed=7"
//
// Clauses are comma-separated; within a clause the first ':'-field is the
// site name and the rest are key=value policy fields (nth, times, prob,
// seed) or the bare word `transient`. The variable is read on first use
// of the framework; a malformed value throws std::invalid_argument there.
//
// The retry half of this header is used by real recovery paths:
// retry_transient() runs an I/O callable and retries it with bounded
// exponential backoff while it throws TransientError (injected faults or
// wrapped EINTR/EAGAIN conditions), rethrowing a permanent error after the
// attempt budget is spent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace amped::fault {

// Thrown by a firing site armed without `transient`. Always carries the
// site name, so the failure is attributable from the what() string alone.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& site)
      : std::runtime_error("fault injected at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

// A retryable failure: the operation may succeed if repeated (interrupted
// syscalls, momentary resource exhaustion, injected transient faults).
// retry_transient() retries exactly this type; everything else is
// permanent and propagates immediately.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Trigger policy for one armed site.
struct FaultSpec {
  // Deterministic trigger: fire on calls [nth, nth + times), 1-based.
  // `times = 0` never fires deterministically (probability-only specs).
  std::uint64_t nth = 1;
  std::uint64_t times = 1;
  // Probabilistic trigger: when > 0, each call additionally fires with
  // this probability from a per-site PRNG seeded with `seed`. The
  // sequence is deterministic in call order (which is itself only
  // deterministic for single-threaded callers — use nth/times for
  // bit-exact tests, prob for chaos sweeps).
  double probability = 0.0;
  std::uint64_t seed = 0;
  // Fire as TransientError (retry loops will absorb it) instead of the
  // permanent FaultInjected.
  bool transient = false;
};

namespace detail {
// Count of armed sites (plus one until AMPED_FAULTS has loaded); the
// whole framework when disabled is this load.
extern std::atomic<int> armed_sites;
// Slow path of AMPED_FAULT_POINT: looks `site` up, counts the call, and
// throws if the armed policy says this call fires.
void check(const char* site);
}  // namespace detail

// Whether any site is armed. This and the registry calls below, except
// disarm(), load AMPED_FAULTS on first use (see configure_env_value).
bool any_armed();

// Arms `site` with `spec`, replacing any previous policy and resetting
// its call counter. Thread-safe, as are all registry operations.
void arm(const std::string& site, const FaultSpec& spec);
// Disarms one site / every site. Counters for disarmed sites are dropped.
void disarm(const std::string& site);
void disarm_all();
// Introspection for tests: how often `site` was passed / fired since it
// was armed (0 for unarmed sites — unarmed passes are not counted).
std::uint64_t call_count(const std::string& site);
std::uint64_t fire_count(const std::string& site);

// Parses the AMPED_FAULTS grammar above and arms each clause. Throws
// std::runtime_error on a malformed clause, arming none of them (CLI
// callers turn that into a usage error).
void configure(const std::string& config);

// Arms the sites an AMPED_FAULTS value names — what the framework does
// with the environment on first use. nullptr (unset) and "" arm nothing.
// A malformed value throws std::invalid_argument naming AMPED_FAULTS and
// the value, arming none of its clauses: a typo must not run a fault
// drill with no faults armed.
void configure_env_value(const char* value);

// Test helper: arms on construction, disarms its site on destruction.
class FaultScope {
 public:
  FaultScope(std::string site, const FaultSpec& spec) : site_(std::move(site)) {
    arm(site_, spec);
  }
  ~FaultScope() { disarm(site_); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  std::string site_;
};

// Bounded exponential backoff for retry_transient. Defaults keep a fully
// exhausted retry under ~5 ms so failure tests stay fast while real
// transient conditions (interrupted syscalls) still get breathing room.
struct RetryPolicy {
  int max_attempts = 4;
  std::chrono::microseconds initial_backoff{100};
  double multiplier = 4.0;
  std::chrono::microseconds max_backoff{5000};
};

// Runs `fn`, retrying while it throws TransientError, sleeping the
// (exponentially growing, capped) backoff between attempts. After
// max_attempts the last transient error is rethrown wrapped in a
// permanent std::runtime_error naming `what`. Non-transient exceptions
// propagate unchanged on the first throw. `retries`, when non-null, is
// incremented once per retry actually performed (recovery accounting).
template <typename Fn>
decltype(auto) retry_transient(const char* what, Fn&& fn,
                               const RetryPolicy& policy = {},
                               std::size_t* retries = nullptr) {
  auto backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientError& e) {
      if (attempt >= policy.max_attempts) {
        throw std::runtime_error(
            std::string(what) + ": transient error persisted after " +
            std::to_string(attempt) + " attempts: " + e.what());
      }
      if (retries != nullptr) ++*retries;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(
          policy.max_backoff,
          std::chrono::microseconds(static_cast<std::int64_t>(
              static_cast<double>(backoff.count()) * policy.multiplier)));
    }
  }
}

}  // namespace amped::fault

// The injection site marker. `site` must be a string literal; the
// disabled cost is one relaxed load of the armed-site count.
#define AMPED_FAULT_POINT(site)                                         \
  do {                                                                  \
    if (::amped::fault::detail::armed_sites.load(                       \
            std::memory_order_relaxed) > 0) {                           \
      ::amped::fault::detail::check(site);                              \
    }                                                                   \
  } while (false)
