#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <stdexcept>

#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "io/memory_budget.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace amped {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return flags_.contains(key);
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace {
// The flags each apply_common_flags overload reads.
constexpr std::string_view kBaseFlags[] = {"threads", "memory-budget",
                                           "log-level", "faults"};
constexpr std::string_view kMttkrpFlags[] = {"policy", "allgather", "backend",
                                             "pipelined"};

bool listed(std::span<const std::string_view> names, const std::string& key) {
  return std::find(names.begin(), names.end(), key) != names.end();
}
}  // namespace

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<std::string_view> known, CommonFlags common) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : flags_) {
    if (listed(known, key) || listed(kBaseFlags, key)) continue;
    if (common == CommonFlags::kWithMttkrp && listed(kMttkrpFlags, key)) {
      continue;
    }
    out.push_back(key);
  }
  return out;
}

void CliArgs::require_known_flags(
    std::initializer_list<std::string_view> known, CommonFlags common) const {
  const auto unknown = unknown_flags(known, common);
  if (unknown.empty()) return;
  std::vector<std::string_view> accepted(known);
  accepted.insert(accepted.end(), std::begin(kBaseFlags), std::end(kBaseFlags));
  if (common == CommonFlags::kWithMttkrp) {
    accepted.insert(accepted.end(), std::begin(kMttkrpFlags),
                    std::end(kMttkrpFlags));
  }
  std::sort(accepted.begin(), accepted.end());
  std::string names;
  for (const auto name : accepted) {
    names += (names.empty() ? "--" : ", --") + std::string(name);
  }
  if (has("help")) {
    std::cout << program_ << " reads " << names << "\n";
    std::exit(0);
  }
  AMPED_LOG_ERROR << "unknown flag --" << unknown.front() << " (" << program_
                  << " reads " << names << ")";
  std::exit(2);
}

void apply_common_flags(const CliArgs& args) {
  if (args.has("log-level")) {
    // Same vocabulary as AMPED_LOG_LEVEL; the flag wins over the
    // environment because it is the more deliberate of the two.
    const std::string level = args.get("log-level", "");
    if (level == "error") {
      set_log_level(LogLevel::kError);
    } else if (level == "warn") {
      set_log_level(LogLevel::kWarn);
    } else if (level == "info") {
      set_log_level(LogLevel::kInfo);
    } else if (level == "debug") {
      set_log_level(LogLevel::kDebug);
    } else {
      AMPED_LOG_ERROR << "invalid --log-level '" << level
                      << "' (want error|warn|info|debug)";
      std::exit(2);
    }
  }
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads > 0) {
    set_host_parallelism(static_cast<std::size_t>(threads));
  }
  if (args.has("memory-budget")) {
    // Sizes accept K/M/G/T suffixes; "0" returns to unlimited. The flag
    // wins over the AMPED_MEMORY_BUDGET environment variable. A typo
    // exits with a usage error rather than escaping main as an
    // exception (this helper only runs in CLI binaries).
    try {
      io::HostMemoryBudget::global().set_limit(
          io::parse_byte_size(args.get("memory-budget", "0")));
    } catch (const std::exception& e) {
      AMPED_LOG_ERROR << "invalid --memory-budget value: " << e.what();
      std::exit(2);
    }
  }
  if (args.has("faults")) {
    // Same grammar as AMPED_FAULTS (util/fault.hpp); the flag arms sites
    // in addition to whatever the environment armed.
    try {
      fault::configure(args.get("faults", ""));
    } catch (const std::exception& e) {
      AMPED_LOG_ERROR << "invalid --faults value: " << e.what();
      std::exit(2);
    }
  }
}

void apply_common_flags(const CliArgs& args, MttkrpOptions* mttkrp) {
  apply_common_flags(args);
  if (!mttkrp) return;
  // Scheduling knobs reach the execution engine through MttkrpOptions;
  // exec::make_scheduler turns them into the matching plan scheduler. A
  // typo exits with a usage error rather than escaping main as an
  // exception (this helper only runs in CLI binaries).
  try {
    if (args.has("policy")) {
      mttkrp->policy = parse_policy(args.get("policy", ""));
    }
    if (args.has("allgather")) {
      mttkrp->allgather = parse_allgather(args.get("allgather", ""));
    }
    if (args.has("backend")) {
      mttkrp->backend = exec::parse_backend(args.get("backend", ""));
    }
  } catch (const std::exception& e) {
    AMPED_LOG_ERROR << e.what();
    std::exit(2);
  }
  mttkrp->pipelined_streaming =
      args.get_bool("pipelined", mttkrp->pipelined_streaming);
}

}  // namespace amped
