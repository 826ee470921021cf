// Unit tests for the shared admission core (sched/expansion.hpp).
//
// Every search engine admits states through Admitter::admit, so each of
// its outcomes is pinned here on a hand-built toy net small enough to
// predict by hand: one test per outcome, each driving the Admitter from
// the root with a plain hash-set frontier. The doom certificate needs the
// task roles the builder emits, so that one case schedules a two-task
// overload spec instead.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "builder/tpn_builder.hpp"
#include "sched/expansion.hpp"
#include "tpn/analysis.hpp"

namespace ezrt {
namespace {

using sched::Admission;
using sched::Candidate;
using tpn::PlaceRole;

/// The simplest frontier: a hash set of keys, no frames.
struct SetFrontier {
  std::unordered_set<sched::Fingerprint, sched::FingerprintHash> visited;

  [[nodiscard]] bool contains(const sched::Fingerprint& key) const {
    return visited.contains(key);
  }
  std::uint64_t insert(const sched::Fingerprint& key) {
    return visited.insert(key).second ? visited.size() : 0;
  }
  [[nodiscard]] std::uint64_t memory_bytes() const { return 0; }
  [[nodiscard]] std::uint64_t depth() const { return 0; }
};

/// Net, semantics, options and goal for one toy search; admitter() wires
/// them into an Admitter over a fresh SetFrontier.
class Toy {
 public:
  explicit Toy(tpn::TimePetriNet net, sched::SchedulerOptions options = {})
      : net_(std::move(net)), options_(options) {
    EXPECT_TRUE(net_.validate().ok());
    semantics_.emplace(net_);
    goal_ = [this](const tpn::Marking& m) {
      return tpn::is_final_marking(net_, m);
    };
    rules_.emplace(net_, *semantics_, options_, goal_,
                   std::chrono::steady_clock::now());
  }
  /// The rules and the goal point into this object.
  Toy(const Toy&) = delete;
  Toy& operator=(const Toy&) = delete;

  [[nodiscard]] sched::Admitter<SetFrontier> admitter() const {
    return sched::Admitter<SetFrontier>(*rules_, SetFrontier{});
  }
  [[nodiscard]] const tpn::TimePetriNet& net() const { return net_; }

 private:
  tpn::TimePetriNet net_;
  sched::SchedulerOptions options_;
  std::optional<tpn::Semantics> semantics_;
  sched::GoalPredicate goal_;
  std::optional<sched::AdmissionRules> rules_;
};

[[nodiscard]] sched::SchedulerOptions classes(sched::StateClassMode mode) {
  sched::SchedulerOptions options;
  options.state_classes = mode;
  return options;
}

/// Admits s0, then fires its candidate number `pick`.
struct Step {
  Admission outcome;
  tpn::State next;
  std::vector<Candidate> candidates;
  sched::Trace path;
};

Step admit_from_root(sched::Admitter<SetFrontier>& admitter,
                     const tpn::TimePetriNet& net, std::size_t pick = 0) {
  const tpn::State s0 = tpn::State::initial(net);
  std::vector<Candidate> root;
  EXPECT_EQ(admitter.admit_root(s0, root), Admission::kAdmitted);
  EXPECT_LT(pick, root.size());
  Step step{};
  step.outcome =
      admitter.admit(s0, root[pick], step.path, step.next, step.candidates);
  return step;
}

TEST(Admitter, DeadlineMissPrunes) {
  // a --t[0,0]--> miss: the only successor marks a deadline-miss place.
  tpn::TimePetriNet net("deadline");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId miss = net.add_place("miss", 0, PlaceRole::kMissed);
  net.add_place("pend", 0, PlaceRole::kEnd);
  const auto t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a);
  net.add_output(t, miss);
  const Toy toy(std::move(net));
  auto admitter = toy.admitter();

  const Step step = admit_from_root(admitter, toy.net());
  EXPECT_EQ(step.outcome, Admission::kPruned);
  EXPECT_TRUE(step.path.empty());
  EXPECT_EQ(admitter.stats().pruned_deadline, 1u);
  EXPECT_EQ(admitter.stats().states_visited, 1u);  // the root only
  EXPECT_EQ(admitter.stats().transitions_fired, 1u);
}

TEST(Admitter, VisitedStatePrunes) {
  // Two conflicting transitions move the one token from a to b at the
  // same instant: both candidates reach the same timed state.
  tpn::TimePetriNet net("visited");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  net.add_place("pend", 0, PlaceRole::kEnd);
  for (const char* name : {"t1", "t2"}) {
    const auto t = net.add_transition(name, TimeInterval(0, 0));
    net.add_input(t, a);
    net.add_output(t, b);
  }
  const Toy toy(std::move(net), classes(sched::StateClassMode::kOff));
  auto admitter = toy.admitter();

  const Step first = admit_from_root(admitter, toy.net(), 0);
  EXPECT_EQ(first.outcome, Admission::kAdmitted);
  EXPECT_EQ(first.path.size(), 1u);

  const tpn::State s0 = tpn::State::initial(toy.net());
  std::vector<Candidate> root;
  admitter.expander().expand(s0, root);
  ASSERT_EQ(root.size(), 2u);
  sched::Trace path;
  tpn::State next;
  std::vector<Candidate> candidates;
  EXPECT_EQ(admitter.admit(s0, root[1], path, next, candidates),
            Admission::kPruned);
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(admitter.stats().pruned_visited, 1u);
  EXPECT_EQ(admitter.stats().states_visited, 2u);
}

TEST(Admitter, DoomedStatePrunesWithClassesOn) {
  // Two 6-unit tasks sharing one processor within a 10-unit deadline:
  // whichever runs first, the other's slack certificate fails.
  spec::Specification s("overload");
  s.add_processor("cpu");
  s.add_task("A", spec::TimingConstraints{0, 0, 6, 10, 10});
  s.add_task("B", spec::TimingConstraints{0, 0, 6, 10, 10});
  auto model = builder::build_tpn(s);
  ASSERT_TRUE(model.ok()) << model.error();
  sched::SchedulerOptions options = classes(sched::StateClassMode::kOn);
  options.collect_attribution = true;
  const Toy toy(model.value().net, options);
  auto admitter = toy.admitter();

  // Walk the admitted states depth-first until the certificate fires.
  std::vector<tpn::State> stack{tpn::State::initial(toy.net())};
  std::vector<Candidate> root;
  ASSERT_EQ(admitter.admit_root(stack.back(), root), Admission::kAdmitted);
  std::vector<std::vector<Candidate>> pending{root};
  while (admitter.stats().pruned_doomed == 0 && !stack.empty()) {
    if (pending.back().empty()) {
      stack.pop_back();
      pending.pop_back();
      continue;
    }
    const Candidate cand = pending.back().back();
    pending.back().pop_back();
    sched::Trace path;
    tpn::State next;
    std::vector<Candidate> candidates;
    const Admission a =
        admitter.admit(stack.back(), cand, path, next, candidates);
    ASSERT_NE(a, Admission::kGoal);
    if (a == Admission::kAdmitted) {
      stack.push_back(std::move(next));
      pending.push_back(std::move(candidates));
    }
  }
  EXPECT_EQ(admitter.stats().pruned_doomed, 1u);
  const sched::AttributionCounters blame = admitter.take_attribution();
  std::uint64_t doomed = blame.doomed_unattributed;
  for (std::uint64_t n : blame.doomed_hits) {
    doomed += n;
  }
  EXPECT_EQ(doomed, 1u);
}

/// a --t[0,0]--> pend: the root's one successor is the goal.
[[nodiscard]] tpn::TimePetriNet one_step_to_goal() {
  tpn::TimePetriNet net("goal");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId end = net.add_place("pend", 0, PlaceRole::kEnd);
  const auto t = net.add_transition("t", TimeInterval(0, 0));
  net.add_input(t, a);
  net.add_output(t, end);
  return net;
}

TEST(Admitter, GoalCountsAsVisitedOnlyWithClassesOff) {
  {
    const Toy toy(one_step_to_goal(), classes(sched::StateClassMode::kOff));
    auto admitter = toy.admitter();
    const Step step = admit_from_root(admitter, toy.net());
    EXPECT_EQ(step.outcome, Admission::kGoal);
    EXPECT_EQ(step.path.size(), 1u);
    EXPECT_EQ(admitter.stats().states_visited, 2u);  // root + goal
  }
  {
    const Toy toy(one_step_to_goal(), classes(sched::StateClassMode::kOn));
    auto admitter = toy.admitter();
    const Step step = admit_from_root(admitter, toy.net());
    EXPECT_EQ(step.outcome, Admission::kGoal);
    EXPECT_EQ(step.path.size(), 1u);
    EXPECT_EQ(admitter.stats().states_visited, 1u);  // the root only
  }
}

TEST(Admitter, CorridorContractsToItsDecisionState) {
  // a -t1-> b -t2-> c, then c branches into t3 | t4: one admission walks
  // the forced t1,t2 corridor and admits only the branching state.
  tpn::TimePetriNet net("corridor");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const PlaceId c = net.add_place("c", 0);
  const PlaceId d = net.add_place("d", 0);
  net.add_place("pend", 0, PlaceRole::kEnd);
  const auto t1 = net.add_transition("t1", TimeInterval(1, 1));
  net.add_input(t1, a);
  net.add_output(t1, b);
  const auto t2 = net.add_transition("t2", TimeInterval(1, 1));
  net.add_input(t2, b);
  net.add_output(t2, c);
  for (const char* name : {"t3", "t4"}) {
    const auto t = net.add_transition(name, TimeInterval(1, 1));
    net.add_input(t, c);
    net.add_output(t, d);
  }
  const Toy toy(std::move(net), classes(sched::StateClassMode::kOn));
  auto admitter = toy.admitter();

  const Step step = admit_from_root(admitter, toy.net());
  EXPECT_EQ(step.outcome, Admission::kAdmitted);
  ASSERT_EQ(step.path.size(), 2u);
  EXPECT_EQ(step.path[0].transition, t1);
  EXPECT_EQ(step.path[1].transition, t2);
  EXPECT_EQ(step.path[1].at, 2);
  EXPECT_EQ(step.candidates.size(), 2u);
  EXPECT_EQ(std::as_const(step.next).marking()[c], 1u);
  EXPECT_EQ(admitter.stats().transitions_fired, 2u);
  EXPECT_EQ(admitter.stats().states_visited, 2u);  // root + decision state
}

TEST(Admitter, CancelledTokenStopsAtTheGuard) {
  base::CancelToken cancel;
  cancel.request();
  sched::SchedulerOptions options;
  options.cancel = &cancel;
  const Toy toy(one_step_to_goal(), options);
  auto admitter = toy.admitter();

  const Step step = admit_from_root(admitter, toy.net());
  EXPECT_EQ(step.outcome, Admission::kStop);
  EXPECT_EQ(admitter.stop_status(), sched::SearchStatus::kCancelled);
  EXPECT_EQ(admitter.stats().states_visited, 1u);  // the goal never counted
}

}  // namespace
}  // namespace ezrt
