// The ezrt command-line tool.
//
// The paper presents ezRealtime as a *tool*; this is its command-line
// incarnation, driving the whole pipeline from ez-spec documents. The
// commands and their options are two static tables in cli.cpp: parsing is
// checked against them, and `ezrt help` prints them.
//
// The entry point takes argv and streams so tests can drive it without a
// process boundary; tools/ezrt.cpp is the thin main().
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ezrt::base {
class CancelToken;
}  // namespace ezrt::base

namespace ezrt::cli {

/// Runs one command; returns the process exit code. The mapping is part
/// of the tool's contract (docs/robustness.md): 0 success/feasible,
/// 1 runtime failure, 2 infeasible, 3 state/wall/memory budget hit,
/// 4 invalid input or usage, 130 cancelled. `cancel` (optional) is the
/// cooperative cancellation token the long-running commands poll; the
/// process main() arms it from a SIGINT handler.
[[nodiscard]] int run(const std::vector<std::string>& args,
                      std::ostream& out, std::ostream& err,
                      const base::CancelToken* cancel = nullptr);

/// The usage text (also printed on `ezrt help`).
[[nodiscard]] std::string usage();

}  // namespace ezrt::cli
