// Guided best-first search (docs/search.md).
//
// The engine consumes the exact pruned successor graph and admission rule
// the DFS uses (sched/expansion.hpp) and differs only in which frontier
// state expands next: the frontier is ordered by f = elapsed + h, where h
// is the admissible remaining-work lower bound from tpn::StateClassifier
// (the largest per-processor outstanding computation demand). Ties break
// toward the tightest deadline slack, then insertion order, so the
// exploration is deterministic. Admissible h never prunes — it only
// reorders — so best-first is complete: an exhausted frontier is a sound
// kInfeasible verdict, and the paper's differential contract (same verdict
// as the DFS oracle) holds.
//
// With state classes enabled (sched::state_classes_enabled) the admission
// also keys the visited set on canonical class digests, cuts doomed
// branches, and contracts forced corridors, exactly as for the DFS.
#pragma once

#include "sched/dfs.hpp"

namespace ezrt::sched {

/// Runs the best-first engine. Preconditions (checked): options selects
/// SearchEngine::kBestFirst and options.objective == kFirstFeasible.
/// Always serial; options.threads is ignored.
[[nodiscard]] SearchOutcome guided_search(const tpn::TimePetriNet& net,
                                          const SchedulerOptions& options,
                                          const GoalPredicate& goal);

}  // namespace ezrt::sched
