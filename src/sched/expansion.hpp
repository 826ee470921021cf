// Shared successor expansion and admission for every search engine.
//
// The soundness of the differential guarantees between the engines (same
// verdict at any thread count and in any exploration order,
// docs/semantics.md §8) rests on all of them exploring the *same* pruned
// successor graph under the *same* admission rule. Both are defined here,
// once:
//
//   * Expander::expand produces the ordered branching alternatives of a
//     state — partial-order reduction, FT_P priority filter, deterministic
//     candidate ordering and firing-time policy included;
//   * Admitter::admit fires one alternative, chases the forced corridor
//     (state classes on), runs the resource guard, drops deadline-miss and
//     doomed states, tests the goal, consults the visited set and records
//     the prune attribution — the paper's §4.4.1 rule (docs/search.md §1).
//
// An engine is then only its frontier: the serial DFS a stack, best-first
// a heap, the parallel engine per-worker work-stealing deques. The visited
// set and the memory estimate differ per frontier, so the Admitter takes
// them from a small `Frontier` policy type (a template parameter, so the
// hot path stays free of indirect calls):
//
//   struct Frontier {
//     bool contains(const Fingerprint& key) const;  // snapshot lookup
//     /// Inserts `key`; returns the number of states admitted so far,
//     /// search-wide and including this one, or 0 when already present.
//     std::uint64_t insert(const Fingerprint& key);
//     std::uint64_t memory_bytes() const;  // visited set + live frontier
//     std::uint64_t depth() const;         // progress gauge only
//     std::uint64_t visited_bytes() const; // single-admitter finish() only
//   };
//
// Expander and Admitter instances are NOT thread-safe (they own scratch
// buffers and counters); the parallel engine gives each worker its own.
// The AdmissionRules they share are read-only.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/progress.hpp"
#include "sched/attribution.hpp"
#include "sched/dfs.hpp"
#include "sched/fingerprint.hpp"
#include "sched/guards.hpp"
#include "tpn/semantics.hpp"
#include "tpn/state_class.hpp"

namespace ezrt::sched {

/// One branching alternative: fire `fireable.transition` after `delay`.
/// The full FireableTransition is kept so the firing can go through
/// Semantics::fire_fireable without re-deriving the domain.
struct Candidate {
  tpn::FireableTransition fireable;
  Time delay;
};

class Expander {
 public:
  /// Prune-reason breakdown of every expand() call so far. Plain
  /// per-instance integers: counting costs nothing measurable and stays
  /// deterministic for a deterministic exploration.
  struct Counters {
    std::uint64_t expansions = 0;  ///< expand() calls
    /// Fireable transitions dropped by the FT_P priority filter.
    std::uint64_t pruned_priority = 0;
    /// Expansions collapsed to one forced successor by the reduction.
    std::uint64_t reduction_singletons = 0;
  };

  /// All three referents must outlive the Expander and stay unchanged
  /// while it is in use.
  Expander(const tpn::TimePetriNet& net, const tpn::Semantics& semantics,
           const SchedulerOptions& options);

  /// Generates the ordered branching alternatives for a state into `out`
  /// (cleared first). Deterministic: a given state always yields the same
  /// candidate sequence, independent of which engine or thread asks.
  void expand(const tpn::State& s, std::vector<Candidate>& out);

  /// Fires one candidate under the configured successor engine.
  [[nodiscard]] tpn::State fire(const tpn::State& s,
                                const Candidate& c) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  const tpn::TimePetriNet* net_;
  const tpn::Semantics* semantics_;
  const SchedulerOptions* options_;
  std::vector<tpn::FireableTransition> ft_;  ///< per-instance scratch
  Counters counters_;
};

/// Recycled candidate buffers: expansion allocates nothing once a search
/// reaches steady state.
class CandidatePool {
 public:
  [[nodiscard]] std::vector<Candidate> take() {
    if (free_.empty()) {
      return {};
    }
    std::vector<Candidate> v = std::move(free_.back());
    free_.pop_back();
    return v;
  }
  void give(std::vector<Candidate>&& v) { free_.push_back(std::move(v)); }

 private:
  std::vector<std::vector<Candidate>> free_;
};

/// The read-only half of admission, built once per search and shared by
/// every Admitter of it (one per parallel worker).
struct AdmissionRules {
  /// `heuristic` builds the state classifier even with classes off (the
  /// best-first engine orders its frontier by it). Every referent must
  /// outlive the rules.
  AdmissionRules(const tpn::TimePetriNet& net,
                 const tpn::Semantics& semantics,
                 const SchedulerOptions& options, const GoalPredicate& goal,
                 std::chrono::steady_clock::time_point t0,
                 bool heuristic = false);

  /// True when a deadline-miss place is marked: the paper's undesirable
  /// state, pruned on sight.
  [[nodiscard]] bool has_miss(const tpn::Marking& m) const {
    for (PlaceId p : miss_places) {
      if (m[p] > 0) {
        return true;
      }
    }
    return false;
  }

  /// Visited-set key: the concrete Zobrist fingerprint, or with classes
  /// on the canonical class digest (`capped` tells whether the state is a
  /// non-canonical member of its class).
  [[nodiscard]] Fingerprint key(const tpn::State& s, bool& capped) const;

  [[nodiscard]] bool goal_reached(const tpn::State& s) const {
    return goal(s.marking());
  }

  const tpn::TimePetriNet& net;
  const tpn::Semantics& semantics;
  const SchedulerOptions& options;
  const GoalPredicate& goal;
  /// Deadline-miss places, collected once so the per-firing check touches
  /// only them instead of scanning every place.
  std::vector<PlaceId> miss_places;
  const bool classes_on;
  /// Built when classes are on or the heuristic is wanted.
  std::optional<tpn::StateClassifier> classifier;
  const std::chrono::steady_clock::time_point t0;
  const ResourceGuard guard;
  /// Hoisted guard.armed(): the unguarded hot path pays one branch.
  const bool guarded;
  const std::uint64_t frame_bytes;
};

/// How one admission step ended.
enum class Admission : std::uint8_t {
  /// A new decision state, counted in states_visited and expanded. From
  /// Admitter::fire: the fired state passed the guard and the miss check.
  kAdmitted,
  /// Dropped: deadline miss, already visited, or doomed (counted in the
  /// matching pruned_* statistic).
  kPruned,
  /// The goal marking was reached; `path` ends at it.
  kGoal,
  /// The search must end: Admitter::stop_status() names the guard verdict
  /// or kLimitReached.
  kStop,
};

template <typename Frontier>
class Admitter {
 public:
  /// Forced-corridor step ceiling per admitted state. A corridor that
  /// spins past it (a zero-delay forced cycle in a hand-built net) admits
  /// the current interior as a decision state, so the visited set regains
  /// termination; builder-produced nets never get near it.
  static constexpr std::uint32_t kCorridorCap = 1u << 16;

  Admitter(const AdmissionRules& rules, Frontier frontier)
      : rules_(&rules),
        frontier_(std::move(frontier)),
        expander_(rules.net, rules.semantics, rules.options),
        attribution_(rules.net, rules.options.collect_attribution) {}

  /// Admits s0: it always counts, whether or not it is the goal. Returns
  /// kGoal or kAdmitted (with `cands` holding its expansion).
  Admission admit_root(const tpn::State& s0, std::vector<Candidate>& cands) {
    bool capped = false;
    (void)frontier_.insert(rules_->key(s0, capped));
    ++stats_.states_visited;
    if (rules_->goal_reached(s0)) {
      return Admission::kGoal;
    }
    expander_.expand(s0, cands);
    return Admission::kAdmitted;
  }

  /// Fires `cand` from `parent` and runs the result through admission.
  /// The edge's firing events are appended to `path`; on kAdmitted `next`
  /// holds the decision state and `cands` its expansion. With classes on
  /// the edge is the whole forced corridor: single-candidate successors
  /// are chased inline and only the decision state at its end is inserted
  /// and counted. On kPruned `path` is restored; on kStop its content is
  /// unspecified.
  ///
  /// Goal rule: with classes off the goal state is inserted and counted
  /// like any admitted state; with classes on it is detected in the
  /// corridor, before the class key is computed, and not counted.
  Admission admit(const tpn::State& parent, Candidate cand, Trace& path,
                  tpn::State& next, std::vector<Candidate>& cands) {
    const std::size_t base = path.size();
    next = expander_.fire(parent, cand);
    ++stats_.transitions_fired;
    if (!rules_->classes_on) {
      if (const Admission a = checked(next); a != Admission::kAdmitted) {
        return a;
      }
      const std::uint64_t n = frontier_.insert(fingerprint(next));
      if (n == 0) {
        ++stats_.pruned_visited;
        return Admission::kPruned;
      }
      admitted(n);
      path.push_back(FiringEvent{cand.fireable.transition, cand.delay,
                                 next.elapsed()});
      if (rules_->goal_reached(next)) {
        return Admission::kGoal;
      }
      if (over_budget(n)) {
        return Admission::kStop;
      }
      expander_.expand(next, cands);
      return Admission::kAdmitted;
    }

    Fingerprint key;
    bool capped = false;
    for (;;) {
      path.push_back(FiringEvent{cand.fireable.transition, cand.delay,
                                 next.elapsed()});
      if (const Admission a = checked(next); a != Admission::kAdmitted) {
        path.resize(base);
        return a;
      }
      if (rules_->goal_reached(next)) {
        return Admission::kGoal;
      }
      eval_ = evaluate(next);
      if (eval_.doomed) {
        ++stats_.pruned_doomed;
        attribution_.record_doomed(eval_.doomed_watchdog,
                                   std::as_const(next).marking());
        path.resize(base);
        return Admission::kPruned;
      }
      key = rules_->key(next, capped);
      expander_.expand(next, cands);
      if (cands.size() != 1 || path.size() - base > kCorridorCap) {
        break;  // decision state (or the corridor safety valve)
      }
      // Interior corridor states are looked up but never inserted. Under
      // concurrency the lookup is a snapshot: at worst two workers chase
      // the same corridor and the insert below still admits it once.
      if (frontier_.contains(key)) {
        ++stats_.pruned_visited;
        path.resize(base);
        return Admission::kPruned;
      }
      cand = cands[0];
      next = expander_.fire(next, cand);
      ++stats_.transitions_fired;
    }
    const std::uint64_t n = frontier_.insert(key);
    if (n == 0) {
      ++stats_.pruned_visited;
      path.resize(base);
      return Admission::kPruned;
    }
    if (capped) {
      ++stats_.classes_merged;
    }
    admitted(n);
    return over_budget(n) ? Admission::kStop : Admission::kAdmitted;
  }

  /// The fire / guard / miss step alone, for engines with their own
  /// visited rule (branch-and-bound readmits states reached more cheaply).
  /// Returns kAdmitted when `next` survived, else kPruned or kStop.
  Admission fire(const tpn::State& parent, const Candidate& cand,
                 tpn::State& next) {
    next = expander_.fire(parent, cand);
    ++stats_.transitions_fired;
    return checked(next);
  }

  /// Counts one admitted state; `n` is the number admitted so far,
  /// search-wide. Publishes progress every kPublishMask + 1 admissions.
  void admitted(std::uint64_t n) {
    ++stats_.states_visited;
    if (rules_->options.progress != nullptr &&
        (n & obs::ProgressSink::kPublishMask) == 0) {
      const std::uint64_t pruned =
          stats_.pruned_deadline + stats_.pruned_visited;
      rules_->options.progress->advance(
          n, stats_.transitions_fired - published_fired_,
          pruned - published_pruned_, frontier_.depth());
      published_fired_ = stats_.transitions_fired;
      published_pruned_ = pruned;
    }
  }

  /// Doom certificate + heuristic for `s`, counted in evaluations().
  tpn::StateClassifier::Eval evaluate(const tpn::State& s) {
    ++evaluations_;
    return rules_->classifier->evaluate(s, rules_->semantics, scratch_);
  }

  /// With classes on: the evaluation of the last decision state admitted.
  [[nodiscard]] const tpn::StateClassifier::Eval& eval() const {
    return eval_;
  }
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] SearchStatus stop_status() const { return stop_; }

  [[nodiscard]] Expander& expander() { return expander_; }
  [[nodiscard]] SearchStats& stats() { return stats_; }
  [[nodiscard]] Frontier& frontier() { return frontier_; }

  /// This admitter's share of the search as a telemetry row.
  [[nodiscard]] WorkerTelemetry telemetry(std::uint32_t worker) {
    WorkerTelemetry t;
    t.worker = worker;
    t.expansions = expander_.counters().expansions;
    t.reduction_singletons = expander_.counters().reduction_singletons;
    stats_.pruned_priority = expander_.counters().pruned_priority;
    t.stats = stats_;
    return t;
  }

  [[nodiscard]] AttributionCounters take_attribution() {
    return attribution_.take();
  }

  /// Folds a single-admitter search into `out`: statistics, attribution,
  /// the final unmasked progress publish (exact totals even for searches
  /// shorter than the publish mask) and, when requested, the telemetry
  /// breakdown as one worker. Runs once per return path; deterministic for
  /// a deterministic exploration.
  void finish(SearchOutcome& out) {
    out.attribution = attribution_.take();
    const WorkerTelemetry worker = telemetry(0);
    out.stats = stats_;
    out.stats.peak_visited_bytes = frontier_.visited_bytes();
    out.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - rules_->t0)
                               .count();
    if (rules_->options.progress != nullptr) {
      rules_->options.progress->publish(
          out.stats.states_visited, out.stats.transitions_fired,
          out.stats.pruned_deadline + out.stats.pruned_visited,
          out.stats.max_depth);
    }
    if (rules_->options.collect_telemetry) {
      out.telemetry.collected = true;
      out.telemetry.reduction_singletons = worker.reduction_singletons;
      out.telemetry.workers = {worker};
      out.telemetry.workers[0].stats = out.stats;
    }
  }

 private:
  /// Guard, then the deadline-miss check, on a freshly fired state.
  /// Fired transitions — not admitted states — drive the guard's check
  /// mask, so the wall clock keeps getting sampled even through long
  /// all-pruned stretches near exhaustion.
  Admission checked(const tpn::State& next) {
    if (rules_->guarded) {
      if (auto tripped = rules_->guard.check(
              stats_.transitions_fired,
              [&] { return frontier_.memory_bytes(); })) {
        stop_ = *tripped;
        return Admission::kStop;
      }
    }
    if (rules_->has_miss(next.marking())) {
      ++stats_.pruned_deadline;
      attribution_.record_deadline(next.marking());
      return Admission::kPruned;
    }
    return Admission::kAdmitted;
  }

  [[nodiscard]] bool over_budget(std::uint64_t n) {
    if (rules_->options.max_states != 0 && n >= rules_->options.max_states) {
      stop_ = SearchStatus::kLimitReached;
      return true;
    }
    return false;
  }

  const AdmissionRules* rules_;
  Frontier frontier_;
  Expander expander_;
  AttributionRecorder attribution_;
  tpn::StateClassifier::Scratch scratch_;  ///< evaluate() buffers
  tpn::StateClassifier::Eval eval_;
  SearchStats stats_;
  SearchStatus stop_ = SearchStatus::kLimitReached;
  std::uint64_t evaluations_ = 0;
  /// What admitted() already added into the shared progress sink, so each
  /// publish pushes only the delta (parallel workers share one sink).
  std::uint64_t published_fired_ = 0;
  std::uint64_t published_pruned_ = 0;
};

}  // namespace ezrt::sched
