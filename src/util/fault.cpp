#include "util/fault.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <utility>

namespace amped::fault {

namespace detail {
// Starts at 1: the pending AMPED_FAULTS load counts as an armed site, so
// the first AMPED_FAULT_POINT reaches check(), which loads it.
std::atomic<int> armed_sites{1};
}  // namespace detail

namespace {

struct ArmedSite {
  FaultSpec spec;
  std::uint64_t calls = 0;
  std::uint64_t fires = 0;
  std::mt19937_64 rng;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, ArmedSite> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

void arm_site(const std::string& site, const FaultSpec& spec) {
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto [it, inserted] = reg.sites.insert_or_assign(
      site, ArmedSite{spec, 0, 0, std::mt19937_64(spec.seed)});
  (void)it;
  if (inserted) {
    detail::armed_sites.fetch_add(1, std::memory_order_relaxed);
  }
}

using Clauses = std::vector<std::pair<std::string, FaultSpec>>;

// Parses the AMPED_FAULTS grammar (util/fault.hpp) without arming
// anything, so a malformed config arms none of its clauses.
Clauses parse_config(const std::string& config) {
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("fault config '" + config + "': " + what);
  };
  Clauses clauses;
  std::size_t pos = 0;
  while (pos < config.size()) {
    const std::size_t end = std::min(config.find(',', pos), config.size());
    const std::string clause = config.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    std::size_t field_pos = 0;
    std::string site;
    FaultSpec spec;
    bool first = true;
    bool times_set = false;
    while (field_pos <= clause.size()) {
      const std::size_t field_end =
          std::min(clause.find(':', field_pos), clause.size());
      const std::string field = clause.substr(field_pos, field_end - field_pos);
      field_pos = field_end + 1;
      if (first) {
        if (field.empty()) fail("empty site name");
        site = field;
        first = false;
        continue;
      }
      if (field == "transient") {
        spec.transient = true;
        continue;
      }
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        fail("expected key=value, got '" + field + "'");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      char* parse_end = nullptr;
      if (key == "nth") {
        spec.nth = std::strtoull(value.c_str(), &parse_end, 10);
      } else if (key == "times") {
        spec.times = std::strtoull(value.c_str(), &parse_end, 10);
        times_set = true;
      } else if (key == "seed") {
        spec.seed = std::strtoull(value.c_str(), &parse_end, 10);
      } else if (key == "prob" || key == "probability") {
        spec.probability = std::strtod(value.c_str(), &parse_end);
      } else {
        fail("unknown key '" + key + "'");
      }
      if (parse_end == value.c_str() || *parse_end != '\0') {
        fail("bad value for '" + key + "': '" + value + "'");
      }
    }
    if (site.empty()) fail("empty site name");
    // `prob=` without an explicit `times=` means probability-only.
    if (spec.probability > 0.0 && !times_set) spec.times = 0;
    clauses.emplace_back(std::move(site), spec);
  }
  return clauses;
}

void arm_env_value(const char* value) {
  if (value == nullptr || *value == '\0') return;
  Clauses clauses;
  try {
    clauses = parse_config(value);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument("AMPED_FAULTS=\"" + std::string(value) +
                                "\": " + e.what());
  }
  for (const auto& [site, spec] : clauses) arm_site(site, spec);
}

// AMPED_FAULTS is read on first use of the framework (the first fault
// point passed, or any registry call) instead of by a static initialiser,
// so a malformed value throws where a caller sees it. A failed load keeps
// the pending slot in armed_sites and is retried, so every later use
// throws too rather than running a drill with nothing armed.
void load_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    arm_env_value(std::getenv("AMPED_FAULTS"));
    detail::armed_sites.fetch_sub(1, std::memory_order_relaxed);
  });
}

}  // namespace

namespace detail {

void check(const char* site) {
  load_env();
  auto& reg = registry();
  std::string message;
  bool transient = false;
  {
    std::lock_guard lock(reg.mutex);
    auto it = reg.sites.find(site);
    if (it == reg.sites.end()) return;
    ArmedSite& armed = it->second;
    const std::uint64_t call = ++armed.calls;  // 1-based
    bool fire = armed.spec.times > 0 && call >= armed.spec.nth &&
                call - armed.spec.nth < armed.spec.times;
    if (!fire && armed.spec.probability > 0.0) {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fire = dist(armed.rng) < armed.spec.probability;
    }
    if (!fire) return;
    ++armed.fires;
    transient = armed.spec.transient;
    message = site;
  }
  if (transient) {
    throw TransientError("fault injected at " + message + " (transient)");
  }
  throw FaultInjected(message);
}

}  // namespace detail

bool any_armed() {
  load_env();
  return detail::armed_sites.load(std::memory_order_relaxed) > 0;
}

void arm(const std::string& site, const FaultSpec& spec) {
  load_env();
  arm_site(site, spec);
}

void disarm(const std::string& site) {
  // No load_env(): FaultScope's destructor calls this, and a site can only
  // be armed after the load succeeded.
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  if (reg.sites.erase(site) > 0) {
    detail::armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  load_env();
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  detail::armed_sites.fetch_sub(static_cast<int>(reg.sites.size()),
                                std::memory_order_relaxed);
  reg.sites.clear();
}

std::uint64_t call_count(const std::string& site) {
  load_env();
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.calls;
}

std::uint64_t fire_count(const std::string& site) {
  load_env();
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fires;
}

void configure(const std::string& config) {
  load_env();
  for (const auto& [site, spec] : parse_config(config)) arm_site(site, spec);
}

void configure_env_value(const char* value) {
  load_env();
  arm_env_value(value);
}

}  // namespace amped::fault
