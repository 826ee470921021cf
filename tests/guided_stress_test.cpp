// Differential stress sweep for the guided engine and state classes
// (docs/search.md). Runs under the ctest "stress" label only.
//
// Every configuration below must agree with the serial concrete-state DFS
// oracle on the *verdict* for every generated model — feasible traces may
// differ between engines (docs/search.md §1), and with class merging the
// visited count of a parallel run is interleaving-dependent, so neither is
// asserted here; every feasible trace must survive replay, the validator
// and the dispatcher simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "builder/tpn_builder.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/validator.hpp"
#include "sched/dfs.hpp"
#include "sched/schedule_table.hpp"
#include "tpn/analysis.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

constexpr std::uint64_t kSweepModels = 64;

/// Same interleaved feasible/infeasible families as the parallel sweep
/// (parallel_test.cpp), so verdict coverage is known to be two-sided.
[[nodiscard]] workload::WorkloadConfig sweep_config(std::uint64_t i) {
  workload::WorkloadConfig c;
  c.seed = 1000 + i;
  c.tasks = 3 + static_cast<std::uint32_t>(i % 4);  // 3..6
  const bool tight = (i % 2) == 1;
  c.utilization = tight ? 0.75 + 0.025 * static_cast<double>(i % 8)
                        : 0.30 + 0.05 * static_cast<double>(i % 5);
  c.preemptive_fraction = 0.5 * static_cast<double>(i % 3);
  c.precedence_edges = static_cast<std::uint32_t>(i % 3);
  c.exclusion_pairs = tight ? static_cast<std::uint32_t>((i / 2) % 2) : 0;
  c.period_pool = {40, 80, 160};
  return c;
}

struct Variant {
  const char* name;
  sched::SearchEngine engine = sched::SearchEngine::kDfs;
  sched::StateClassMode classes = sched::StateClassMode::kAuto;
  std::uint32_t threads = 0;
};

constexpr Variant kVariants[] = {
    {"dfs/classes-on/serial", sched::SearchEngine::kDfs,
     sched::StateClassMode::kOn, 0},
    {"dfs/classes-on/2t", sched::SearchEngine::kDfs,
     sched::StateClassMode::kOn, 2},
    {"dfs/classes-on/4t", sched::SearchEngine::kDfs,
     sched::StateClassMode::kOn, 4},
    {"bestfirst/classes-off", sched::SearchEngine::kBestFirst,
     sched::StateClassMode::kOff, 0},
    {"bestfirst/classes-on", sched::SearchEngine::kBestFirst,
     sched::StateClassMode::kOn, 0},
    // --threads must not reroute the guided engine into the parallel DFS.
    {"bestfirst/classes-on/4t", sched::SearchEngine::kBestFirst,
     sched::StateClassMode::kOn, 4},
};

[[nodiscard]] sched::SchedulerOptions variant_options(const Variant& v) {
  sched::SchedulerOptions options;
  options.max_states = 400'000;
  options.search_engine = v.engine;
  options.state_classes = v.classes;
  options.threads = v.threads;
  return options;
}

void expect_trace_valid(const spec::Specification& s,
                        const builder::BuiltModel& model,
                        const sched::DfsScheduler& oracle,
                        const sched::Trace& trace) {
  auto final_state = oracle.replay(trace);
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

TEST(GuidedDifferential, SweepAgreesWithConcreteSerialOracle) {
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t limited = 0;
  for (std::uint64_t i = 0; i < kSweepModels; ++i) {
    SCOPED_TRACE("sweep model " + std::to_string(i));
    auto s = workload::generate(sweep_config(i));
    ASSERT_TRUE(s.ok());
    auto model = builder::build_tpn(s.value());
    ASSERT_TRUE(model.ok());

    sched::SchedulerOptions oracle_options;
    oracle_options.max_states = 400'000;
    oracle_options.state_classes = sched::StateClassMode::kOff;
    const sched::DfsScheduler oracle(model.value().net, oracle_options);
    const sched::SearchOutcome reference = oracle.search();
    if (reference.status == sched::SearchStatus::kLimitReached) {
      ++limited;
      continue;
    }
    (reference.status == sched::SearchStatus::kFeasible ? feasible
                                                        : infeasible)++;

    for (const Variant& v : kVariants) {
      SCOPED_TRACE(v.name);
      const sched::DfsScheduler engine(model.value().net,
                                       variant_options(v));
      const sched::SearchOutcome out = engine.search();
      if (out.status == sched::SearchStatus::kFeasible) {
        // Any returned schedule must be valid regardless of which engine
        // produced it; the *trace* is allowed to differ from the oracle's.
        ASSERT_EQ(reference.status, sched::SearchStatus::kFeasible);
        expect_trace_valid(s.value(), model.value(), oracle, out.trace);
      } else {
        ASSERT_EQ(out.status, reference.status);
      }
    }
  }
  // The sweep must genuinely exercise both verdict families.
  EXPECT_GT(feasible, kSweepModels / 8);
  EXPECT_GT(infeasible, kSweepModels / 8);
  EXPECT_LT(limited, kSweepModels / 4);
}

}  // namespace
}  // namespace ezrt
