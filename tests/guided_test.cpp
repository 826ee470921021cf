// Tests for the guided search engine and the state-class abstraction
// (docs/search.md).
//
// Layers:
//
//   * auto rule — state_classes_enabled() resolves kAuto exactly for
//     exhaustive first-feasible runs (pruning off, no state budget) and
//     never otherwise, so default-configured searches are untouched;
//   * exhaustive compression — the ~330k-state infeasible workload from
//     BM_Parallel_ExhaustiveInfeasible must reach its kInfeasible verdict
//     visiting at most 10% of the concrete state count once classes are
//     on, while the kOff run still counts every concrete state;
//   * engine parity — best-first exhausts the same class graph as DFS
//     (identical verdict and distinct-state count);
//   * guidance quality — on the paper's mine-pump model best-first with
//     classes finds a feasible schedule visiting a fraction of the DFS
//     state count, and every guided trace survives replay, the validator
//     and the dispatcher simulator.
#include <gtest/gtest.h>

#include <cstdint>

#include "builder/tpn_builder.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

/// Concrete reachable-state count of exhaustive_infeasible_spec() under
/// strong semantics with pruning off (pinned by ParallelScale tests and
/// BM_Parallel_ExhaustiveInfeasible).
constexpr std::uint64_t kExhaustiveConcreteStates = 328'577;

/// The workload behind BM_Parallel_ExhaustiveInfeasible: infeasible by
/// exclusion contention, so any complete engine must exhaust the space.
[[nodiscard]] spec::Specification exhaustive_infeasible_spec() {
  workload::WorkloadConfig config;
  config.tasks = 10;
  config.utilization = 0.95;
  config.exclusion_pairs = 4;
  config.seed = 5;
  return workload::generate(config).value();
}

[[nodiscard]] sched::SchedulerOptions exhaustive_options() {
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 0;
  return options;
}

/// Full downstream pipeline check on a feasible trace: replay under the
/// timed semantics into M_F (P2), the independent schedule validator (P1)
/// and the dispatcher simulator (P3).
void expect_trace_valid(const spec::Specification& s,
                        const builder::BuiltModel& model,
                        const sched::DfsScheduler& scheduler,
                        const sched::Trace& trace) {
  auto final_state = scheduler.replay(trace);
  ASSERT_TRUE(final_state.ok()) << final_state.error();
  EXPECT_TRUE(tpn::is_final_marking(model.net, final_state.value().marking()));

  auto table = sched::extract_schedule(s, model, trace);
  ASSERT_TRUE(table.ok()) << table.error();
  const runtime::ValidationReport report =
      runtime::validate_schedule(s, table.value());
  EXPECT_TRUE(report.ok()) << report.summary();

  const runtime::DispatcherRun run =
      runtime::simulate_dispatcher(s, table.value());
  EXPECT_TRUE(run.ok()) << (run.faults.empty() ? "deadline missed"
                                               : run.faults.front());
}

// -- kAuto resolution --------------------------------------------------------

TEST(StateClassMode, AutoEnablesOnlyForExhaustiveFirstFeasibleRuns) {
  sched::SchedulerOptions options;  // priority filter + 250k budget
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  EXPECT_TRUE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.max_states = 250'000;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.pruning = sched::PruningMode::kPriorityFilter;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  options = exhaustive_options();
  options.objective = sched::Objective::kMinimizeMakespan;
  EXPECT_FALSE(sched::state_classes_enabled(options));

  // Explicit modes override the heuristic in both directions.
  options = sched::SchedulerOptions{};
  options.state_classes = sched::StateClassMode::kOn;
  EXPECT_TRUE(sched::state_classes_enabled(options));
  options = exhaustive_options();
  options.state_classes = sched::StateClassMode::kOff;
  EXPECT_FALSE(sched::state_classes_enabled(options));
}

// -- Exhaustive verdict compression ------------------------------------------

TEST(StateClasses, ExhaustiveInfeasibleVisitsUnderTenPercent) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  // kAuto resolves to classes-on for this configuration.
  const sched::DfsScheduler scheduler(model.value().net,
                                      exhaustive_options());
  const sched::SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  EXPECT_LE(out.stats.states_visited, kExhaustiveConcreteStates / 10)
      << "state classes must compress the exhaustive verdict by >= 10x";
  EXPECT_GT(out.stats.classes_merged, 0u);
  EXPECT_GT(out.stats.pruned_doomed, 0u);
}

TEST(StateClasses, ClassesOffStillCountsEveryConcreteState) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  sched::SchedulerOptions options = exhaustive_options();
  options.state_classes = sched::StateClassMode::kOff;
  const sched::DfsScheduler scheduler(model.value().net, options);
  const sched::SearchOutcome out = scheduler.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  EXPECT_EQ(out.stats.states_visited, kExhaustiveConcreteStates);
  EXPECT_EQ(out.stats.classes_merged, 0u);
}

// -- Engine parity on exhausted searches -------------------------------------

TEST(GuidedSearch, BestFirstExhaustsTheSameClassGraphAsDfs) {
  const spec::Specification s = exhaustive_infeasible_spec();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  const sched::DfsScheduler dfs(model.value().net, exhaustive_options());
  const sched::SearchOutcome reference = dfs.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kInfeasible);

  sched::SchedulerOptions options = exhaustive_options();
  options.search_engine = sched::SearchEngine::kBestFirst;
  const sched::DfsScheduler guided(model.value().net, options);
  const sched::SearchOutcome out = guided.search();
  EXPECT_EQ(out.status, sched::SearchStatus::kInfeasible);
  // Both engines exhaust exactly the reachable class graph, so the
  // distinct-state count is an invariant, not a statistic.
  EXPECT_EQ(out.stats.states_visited, reference.stats.states_visited);
  EXPECT_GT(out.stats.heuristic_evals, 0u);
}

// -- Guidance quality on feasible models -------------------------------------

TEST(GuidedSearch, BestFirstWithClassesBeatsDfsOnMinePump) {
  const spec::Specification s = workload::mine_pump_specification();
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok());

  const sched::SchedulerOptions dfs_options;
  const sched::DfsScheduler dfs(model.value().net, dfs_options);
  const sched::SearchOutcome reference = dfs.search();
  ASSERT_EQ(reference.status, sched::SearchStatus::kFeasible);

  sched::SchedulerOptions options;
  options.search_engine = sched::SearchEngine::kBestFirst;
  options.state_classes = sched::StateClassMode::kOn;
  const sched::DfsScheduler guided(model.value().net, options);
  const sched::SearchOutcome out = guided.search();
  ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);
  EXPECT_LT(out.stats.states_visited, reference.stats.states_visited)
      << "guided search must beat DFS on the paper's case study";
  expect_trace_valid(s, model.value(), dfs, out.trace);
}

TEST(GuidedSearch, BestFirstSchedulesGeneratedWorkloads) {
  for (std::uint64_t seed : {7u, 11u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    workload::WorkloadConfig config;
    config.tasks = 8;
    config.utilization = 0.5;
    config.seed = seed;
    auto s = workload::generate(config);
    ASSERT_TRUE(s.ok());
    auto model = builder::build_tpn(s.value());
    ASSERT_TRUE(model.ok());

    sched::SchedulerOptions options;
    options.search_engine = sched::SearchEngine::kBestFirst;
    const sched::DfsScheduler guided(model.value().net, options);
    const sched::SearchOutcome out = guided.search();
    ASSERT_EQ(out.status, sched::SearchStatus::kFeasible);

    const sched::DfsScheduler oracle(model.value().net,
                                     sched::SchedulerOptions{});
    expect_trace_valid(s.value(), model.value(), oracle, out.trace);
  }
}

}  // namespace
}  // namespace ezrt
