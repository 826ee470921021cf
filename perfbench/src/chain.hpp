// One compile chain: ez-spec document -> verdict -> table -> validation ->
// C code -> run report, with a span around each layer call.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "sched/dfs.hpp"

namespace perfbench {

struct ChainResult {
  std::string verdict;  ///< sched::to_string(status), or "parse-error"
  ezrt::sched::SearchStats stats;
  std::uint64_t steals = 0;            ///< collect_telemetry runs only
  std::uint64_t idle_transitions = 0;  ///< collect_telemetry runs only
  std::uint64_t places = 0;
  std::uint64_t transitions = 0;
  std::uint64_t segments_checked = 0;
  std::uint64_t code_bytes = 0;    ///< summed size of the generated files
  std::uint64_t report_bytes = 0;  ///< run report JSON size
  double latency_ms = 0.0;         ///< the chain alone, without checks
  std::string check_error;  ///< empty when every check on the output held
};

/// Runs the chain on `document` under `options`. After timing, a feasible
/// table is checked by the validator (inside the chain) and by replaying
/// the trace through DfsScheduler::replay into the final marking.
[[nodiscard]] ChainResult run_chain(const std::string& document,
                                    const ezrt::sched::SchedulerOptions& options,
                                    Tracer& tracer);

/// The CLI-default options (`ezrt schedule spec`).
[[nodiscard]] ezrt::sched::SchedulerOptions compile_options();

/// `ezrt schedule spec --complete --max-states 0 --threads 4`.
[[nodiscard]] ezrt::sched::SchedulerOptions exhaustive_options();

}  // namespace perfbench
