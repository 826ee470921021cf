#include "sched/dfs.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/hash.hpp"
#include "sched/expansion.hpp"
#include "sched/fingerprint.hpp"
#include "sched/guided.hpp"
#include "sched/parallel.hpp"

namespace ezrt::sched {

namespace {

using tpn::State;

struct Frame {
  State state;
  std::vector<Candidate> candidates;
  std::size_t next = 0;      ///< index of the next candidate to expand
  std::uint32_t events = 0;  ///< trace events this frame's edge added
};

/// The serial DFS frontier: a stack of frames over a hash set of keys.
struct DfsFrontier {
  const std::vector<Frame>* stack;
  std::uint64_t frame_bytes;
  std::unordered_set<Fingerprint, FingerprintHash> visited;

  [[nodiscard]] bool contains(const Fingerprint& key) const {
    return visited.contains(key);
  }
  std::uint64_t insert(const Fingerprint& key) {
    return visited.insert(key).second ? visited.size() : 0;
  }
  [[nodiscard]] std::uint64_t visited_bytes() const {
    return node_container_bytes(visited, sizeof(Fingerprint));
  }
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return visited_bytes() + stack->size() * frame_bytes;
  }
  [[nodiscard]] std::uint64_t depth() const { return stack->size(); }
};

}  // namespace

const char* to_string(SearchStatus status) {
  switch (status) {
    case SearchStatus::kFeasible:
      return "feasible";
    case SearchStatus::kInfeasible:
      return "infeasible";
    case SearchStatus::kLimitReached:
      return "limit-reached";
    case SearchStatus::kTimeLimit:
      return "time-limit";
    case SearchStatus::kMemoryLimit:
      return "memory-limit";
    case SearchStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// One spelling per option value: to_string prints it, parse_* reads it.
template <typename Enum>
struct Spelling {
  const char* name;
  Enum value;
};

constexpr Spelling<SearchEngine> kEngineSpellings[] = {
    {"dfs", SearchEngine::kDfs},
    {"bestfirst", SearchEngine::kBestFirst},
};
constexpr Spelling<StateClassMode> kClassModeSpellings[] = {
    {"auto", StateClassMode::kAuto},
    {"on", StateClassMode::kOn},
    {"off", StateClassMode::kOff},
};
constexpr Spelling<Objective> kObjectiveSpellings[] = {
    {"makespan", Objective::kMinimizeMakespan},
    {"switches", Objective::kMinimizeSwitches},
};

template <typename Enum, std::size_t N>
const char* spelling_of(Enum value, const Spelling<Enum> (&spellings)[N]) {
  for (const Spelling<Enum>& s : spellings) {
    if (s.value == value) {
      return s.name;
    }
  }
  return "unknown";
}

template <typename Enum, std::size_t N>
std::string joined(const Spelling<Enum> (&spellings)[N]) {
  std::string out;
  for (const Spelling<Enum>& s : spellings) {
    out += out.empty() ? "" : "|";
    out += s.name;
  }
  return out;
}

template <typename Enum, std::size_t N>
Result<Enum> parse_spelling(std::string_view text,
                            const Spelling<Enum> (&spellings)[N]) {
  for (const Spelling<Enum>& s : spellings) {
    if (text == s.name) {
      return s.value;
    }
  }
  return make_error(ErrorCode::kInvalidArgument,
                    "expects " + joined(spellings) + ", got '" +
                        std::string(text) + "'");
}

}  // namespace

const char* to_string(SearchEngine engine) {
  return spelling_of(engine, kEngineSpellings);
}

const char* to_string(StateClassMode mode) {
  return spelling_of(mode, kClassModeSpellings);
}

std::string search_engine_choices() { return joined(kEngineSpellings); }

std::string state_class_mode_choices() {
  return joined(kClassModeSpellings);
}

std::string objective_choices() { return joined(kObjectiveSpellings); }

Result<SearchEngine> parse_search_engine(std::string_view text) {
  return parse_spelling(text, kEngineSpellings);
}

Result<StateClassMode> parse_state_class_mode(std::string_view text) {
  return parse_spelling(text, kClassModeSpellings);
}

Result<Objective> parse_objective(std::string_view text) {
  return parse_spelling(text, kObjectiveSpellings);
}

void set_objective(SchedulerOptions& options, Objective objective) {
  options.objective = objective;
  if (objective != Objective::kFirstFeasible) {
    options.pruning = PruningMode::kNone;
  }
}

bool state_classes_enabled(const SchedulerOptions& options) {
  // The abstraction preserves goal reachability, not cost structure or
  // bounded-exploration effort counts, so it applies to kFirstFeasible
  // searches only; kAuto further restricts it to truly exhaustive runs
  // (complete pruning, unbounded state budget), where the verdict is the
  // deliverable and the order-of-magnitude state collapse pays.
  if (options.objective != Objective::kFirstFeasible) {
    return false;
  }
  switch (options.state_classes) {
    case StateClassMode::kOn:
      return true;
    case StateClassMode::kOff:
      return false;
    case StateClassMode::kAuto:
      return options.pruning == PruningMode::kNone &&
             options.max_states == 0;
  }
  return false;
}

DfsScheduler::DfsScheduler(const tpn::TimePetriNet& net,
                           SchedulerOptions options)
    : net_(&net), semantics_(net), options_(options) {
  EZRT_CHECK(net.validated(), "DfsScheduler requires a validated net");
  goal_ = [this](const tpn::Marking& m) {
    return tpn::is_final_marking(*net_, m);
  };
}

namespace {

/// Branch-and-bound over the shared expansion: explore exhaustively, keep
/// the cheapest schedule, prune branches whose monotone partial cost
/// already reaches the incumbent. Cost edges:
///   kMinimizeMakespan — the firing delay (partial cost = elapsed);
///   kMinimizeSwitches — 1 whenever a compute firing belongs to a
///     different task than the previous compute firing on the same
///     processor (per-core context switches; on mono-processor nets this
///     degenerates to the global previous-compute comparison).
/// The visited table keeps the best cost per state and readmits a state
/// reached more cheaply, so it is not the Admitter's set; the fire / guard
/// / miss step is. For the switches objective every core's previous-
/// compute task is folded into the state key (two paths to equal (m,c)
/// with different running tasks have different futures).
SearchOutcome branch_and_bound(const AdmissionRules& rules) {
  const tpn::TimePetriNet& net = rules.net;
  const bool switches =
      rules.options.objective == Objective::kMinimizeSwitches;

  // Per-transition processor index for the switches cost: each compute
  // transition returns its processor place on completion in every block
  // style, so the kProcessor place among its outputs identifies the
  // core. Role-free nets collapse to a single pseudo-core (index 0).
  std::vector<std::uint32_t> proc_of(net.transition_count(), 0);
  std::size_t proc_count = 1;
  if (switches) {
    std::vector<std::int32_t> place_proc(net.place_count(), -1);
    std::size_t next_proc = 0;
    for (TransitionId t : net.transition_ids()) {
      if (net.transition(t).role != tpn::TransitionRole::kCompute) {
        continue;
      }
      for (const tpn::Arc& arc : net.outputs(t)) {
        if (net.place(arc.place).role == tpn::PlaceRole::kProcessor) {
          std::int32_t& idx = place_proc[arc.place.value()];
          if (idx < 0) {
            idx = static_cast<std::int32_t>(next_proc++);
          }
          proc_of[t.value()] = static_cast<std::uint32_t>(idx);
        }
      }
    }
    proc_count = std::max<std::size_t>(1, next_proc);
  }

  struct BbFrame {
    State state;
    std::vector<Candidate> candidates;
    std::size_t next = 0;
    std::uint64_t cost = 0;
    /// Previous compute firing's task per core (empty unless switches).
    std::vector<TaskId> last_compute;
  };
  using BestSeen =
      std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash>;

  /// Memory accounting only: the cost-keyed table is not a plain set.
  struct BbFrontier {
    const BestSeen* best_seen;
    const std::vector<BbFrame>* stack;
    std::uint64_t frame_bytes;

    [[nodiscard]] std::uint64_t visited_bytes() const {
      return node_container_bytes(
          *best_seen, sizeof(Fingerprint) + sizeof(std::uint64_t));
    }
    [[nodiscard]] std::uint64_t memory_bytes() const {
      return visited_bytes() + stack->size() * frame_bytes;
    }
    [[nodiscard]] std::uint64_t depth() const { return stack->size(); }
  };

  BestSeen best_seen;
  std::vector<BbFrame> stack;
  Admitter<BbFrontier> admitter(
      rules, BbFrontier{&best_seen, &stack, rules.frame_bytes});
  SearchStats& stats = admitter.stats();
  CandidatePool buffers;
  SearchOutcome out;
  Trace current;
  Trace best_trace;
  std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();

  auto key_of = [&](const State& s, const std::vector<TaskId>& last) {
    Fingerprint f = fingerprint(s);
    for (TaskId l : last) {
      f.b = hash_mix(f.b, l.valid() ? l.value() + 1 : 0);
    }
    return f;
  };

  BbFrame root;
  root.state = State::initial(net);
  admitter.expander().expand(root.state, root.candidates);
  if (switches) {
    root.last_compute.assign(proc_count, TaskId());
  }
  best_seen.emplace(key_of(root.state, root.last_compute), 0);
  stats.states_visited = 1;
  if (rules.goal_reached(root.state)) {
    out.status = SearchStatus::kFeasible;
    out.solutions_found = 1;
    admitter.finish(out);
    return out;
  }
  stack.push_back(std::move(root));

  bool limit_hit = false;
  std::optional<SearchStatus> guard_status;
  while (!stack.empty() && !limit_hit) {
    BbFrame& frame = stack.back();
    stats.max_depth = std::max<std::uint64_t>(stats.max_depth, stack.size());
    if (frame.next >= frame.candidates.size()) {
      buffers.give(std::move(frame.candidates));
      stack.pop_back();
      if (!current.empty()) {
        current.pop_back();
      }
      ++stats.backtracks;
      continue;
    }
    const Candidate cand = frame.candidates[frame.next++];
    const tpn::Transition& fired = net.transition(cand.fireable.transition);

    std::uint64_t edge_cost = 0;
    std::vector<TaskId> last_compute = frame.last_compute;
    if (switches) {
      if (fired.role == tpn::TransitionRole::kCompute) {
        const std::uint32_t core = proc_of[cand.fireable.transition.value()];
        edge_cost = fired.task == last_compute[core] ? 0 : 1;
        last_compute[core] = fired.task;
      }
    } else {
      edge_cost = cand.delay;
    }
    const std::uint64_t cost = frame.cost + edge_cost;
    if (cost >= best_cost) {
      continue;  // cannot improve the incumbent
    }

    State next;
    const Admission a = admitter.fire(frame.state, cand, next);
    if (a == Admission::kStop) {
      // Same contract as the state budget: the incumbent found so far (if
      // any) is still returned below.
      guard_status = admitter.stop_status();
      break;
    }
    if (a == Admission::kPruned) {
      continue;
    }
    const Fingerprint key = key_of(next, last_compute);
    auto [it, inserted] = best_seen.try_emplace(key, cost);
    if (!inserted) {
      if (it->second <= cost) {
        ++stats.pruned_visited;
        continue;
      }
      it->second = cost;  // re-admitted more cheaply: re-expanded
    }
    admitter.admitted(stats.states_visited + 1);

    current.push_back(FiringEvent{cand.fireable.transition, cand.delay,
                                  next.elapsed()});
    if (rules.goal_reached(next)) {
      best_cost = cost;
      best_trace = current;
      ++out.solutions_found;
      current.pop_back();
      continue;
    }
    if (rules.options.max_states != 0 &&
        stats.states_visited >= rules.options.max_states) {
      limit_hit = true;
      current.pop_back();
      break;
    }
    BbFrame child;
    child.state = std::move(next);
    child.candidates = buffers.take();
    admitter.expander().expand(child.state, child.candidates);
    child.cost = cost;
    child.last_compute = std::move(last_compute);
    stack.push_back(std::move(child));
  }

  if (out.solutions_found > 0) {
    out.status = SearchStatus::kFeasible;
    out.trace = std::move(best_trace);
    out.best_cost = best_cost;
  } else if (guard_status.has_value()) {
    out.status = *guard_status;
  } else {
    out.status = limit_hit ? SearchStatus::kLimitReached
                           : SearchStatus::kInfeasible;
  }
  admitter.finish(out);
  return out;
}

/// The serial first-feasible DFS, classes on and off alike: every edge is
/// one Admitter::admit call, so with classes on an edge is a whole forced
/// corridor and a frame remembers how many trace events to pop.
SearchOutcome depth_first(const AdmissionRules& rules) {
  std::vector<Frame> stack;
  Admitter<DfsFrontier> admitter(rules,
                                 DfsFrontier{&stack, rules.frame_bytes, {}});
  SearchStats& stats = admitter.stats();
  CandidatePool buffers;
  SearchOutcome out;

  auto done = [&](SearchStatus status) {
    out.status = status;
    if (status != SearchStatus::kFeasible) {
      out.trace.clear();
    }
    admitter.finish(out);
    return out;
  };

  State s0 = State::initial(rules.net);
  std::vector<Candidate> root_candidates;
  if (admitter.admit_root(s0, root_candidates) == Admission::kGoal) {
    return done(SearchStatus::kFeasible);
  }
  stack.push_back(Frame{std::move(s0), std::move(root_candidates), 0, 0});

  while (!stack.empty()) {
    Frame& frame = stack.back();
    stats.max_depth = std::max<std::uint64_t>(stats.max_depth, stack.size());
    if (frame.next >= frame.candidates.size()) {
      // Subtree exhausted: backtrack over the edge that entered it.
      out.trace.resize(out.trace.size() - frame.events);
      buffers.give(std::move(frame.candidates));
      stack.pop_back();
      ++stats.backtracks;
      continue;
    }
    const Candidate cand = frame.candidates[frame.next++];
    const std::size_t depth = out.trace.size();
    State next;
    std::vector<Candidate> candidates = buffers.take();
    switch (admitter.admit(frame.state, cand, out.trace, next, candidates)) {
      case Admission::kAdmitted:
        stack.push_back(Frame{std::move(next), std::move(candidates), 0,
                              static_cast<std::uint32_t>(out.trace.size() -
                                                         depth)});
        break;
      case Admission::kPruned:
        buffers.give(std::move(candidates));
        break;
      case Admission::kGoal:
        return done(SearchStatus::kFeasible);
      case Admission::kStop:
        return done(admitter.stop_status());
    }
  }
  return done(SearchStatus::kInfeasible);
}

}  // namespace

SearchOutcome DfsScheduler::search() const {
  // The guided engine (docs/search.md) replaces the exploration order but
  // consumes the same expansion and admission; it covers the first-
  // feasible objective and runs serially (a priority queue is a global
  // order — sharding it would re-serialize the workers on the queue lock).
  if (options_.search_engine != SearchEngine::kDfs &&
      options_.objective == Objective::kFirstFeasible) {
    return guided_search(*net_, options_, goal_);
  }
  // The parallel engine covers the first-feasible objective; the
  // branch-and-bound objectives keep their serial incumbent bookkeeping
  // (a shared incumbent would serialize the workers anyway).
  if (options_.threads > 0 &&
      options_.objective == Objective::kFirstFeasible) {
    return parallel_search(*net_, options_, goal_);
  }
  const AdmissionRules rules(*net_, semantics_, options_, goal_,
                             std::chrono::steady_clock::now());
  return options_.objective == Objective::kFirstFeasible
             ? depth_first(rules)
             : branch_and_bound(rules);
}

Result<tpn::State> DfsScheduler::replay(const Trace& trace) const {
  State s = State::initial(*net_);
  for (const FiringEvent& event : trace) {
    auto next = semantics_.try_fire(s, event.transition, event.delay);
    if (!next.ok()) {
      return next.error();
    }
    s = std::move(next).value();
    if (s.elapsed() != event.at) {
      return make_error(ErrorCode::kInvalidArgument,
                        "trace timestamp mismatch at transition '" +
                            net_->transition(event.transition).name +
                            "': recorded " + std::to_string(event.at) +
                            ", replayed " + std::to_string(s.elapsed()));
    }
  }
  return s;
}

}  // namespace ezrt::sched
