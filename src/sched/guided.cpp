#include "sched/guided.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "sched/expansion.hpp"
#include "sched/fingerprint.hpp"

namespace ezrt::sched {

namespace {

using tpn::State;

constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One admitted frontier state. Nodes live in an append-only arena so a
/// goal's trace can be rebuilt by walking parent links; `events` holds the
/// edge from the parent — one firing normally, the whole contracted
/// corridor when state classes are on.
struct Node {
  State state;
  std::vector<Candidate> candidates;  ///< expansion, computed at admission
  std::vector<FiringEvent> events;
  std::uint32_t parent = kNoParent;
  std::uint32_t depth = 0;  ///< trace events from the root to this node
};

/// Frontier ordering key: primary f = elapsed + remaining-work bound
/// (admissible, so best-first stays complete). An admissible h leaves
/// large equal-f plateaus (every state on an optimal schedule shares the
/// same f), so the tie-breaks decide the practical cost: smaller h first
/// (deeper along the schedule, the standard A* plateau rule), then the
/// tightest deadline slack (urgency), then LIFO insertion order — which
/// walks a plateau depth-first instead of flooding it breadth-first.
struct Entry {
  Time f = 0;
  Time h = 0;
  Time slack = 0;
  std::uint32_t node = 0;
};

struct EntryWorse {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.h != b.h) {
      return a.h > b.h;
    }
    if (a.f != b.f) {
      return a.f > b.f;
    }
    if (a.slack != b.slack) {
      return a.slack > b.slack;
    }
    return a.node < b.node;  // LIFO: the newest admission expands first
  }
};

/// The best-first frontier: the node arena over a hash set of keys.
struct ArenaFrontier {
  const std::vector<Node>* nodes;
  std::uint64_t frame_bytes;
  std::uint32_t expanding_depth = 0;  ///< depth of the node being expanded
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
    return visited_bytes() + nodes->size() * frame_bytes;
  }
  [[nodiscard]] std::uint64_t depth() const { return expanding_depth; }
};

/// Rebuilds the root-to-goal trace: ancestor edges via parent links, then
/// the in-flight edge that reached the goal.
Trace goal_trace(const std::vector<Node>& nodes, std::uint32_t parent,
                 const Trace& edge) {
  std::vector<std::uint32_t> chain;
  for (std::uint32_t i = parent; i != kNoParent; i = nodes[i].parent) {
    chain.push_back(i);
  }
  Trace trace;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Node& n = nodes[*it];
    trace.insert(trace.end(), n.events.begin(), n.events.end());
  }
  trace.insert(trace.end(), edge.begin(), edge.end());
  return trace;
}

SearchOutcome best_first(const AdmissionRules& rules) {
  std::vector<Node> nodes;
  Admitter<ArenaFrontier> admitter(
      rules, ArenaFrontier{&nodes, rules.frame_bytes, 0, {}});
  SearchStats& stats = admitter.stats();
  SearchOutcome out;

  auto done = [&](SearchStatus status) {
    out.status = status;
    stats.heuristic_evals = admitter.evaluations();
    admitter.finish(out);
    return out;
  };
  // With classes on the admission already evaluated the decision state.
  auto entry_of = [&](const State& s, std::uint32_t node) {
    const tpn::StateClassifier::Eval eval =
        rules.classes_on ? admitter.eval() : admitter.evaluate(s);
    return Entry{s.elapsed() + eval.remaining_work, eval.remaining_work,
                 eval.min_slack, node};
  };

  Node root;
  root.state = State::initial(rules.net);
  if (admitter.admit_root(root.state, root.candidates) == Admission::kGoal) {
    return done(SearchStatus::kFeasible);
  }
  const tpn::StateClassifier::Eval root_eval = admitter.evaluate(root.state);
  std::priority_queue<Entry, std::vector<Entry>, EntryWorse> open;
  open.push(Entry{root.state.elapsed() + root_eval.remaining_work,
                  root_eval.remaining_work, root_eval.min_slack, 0});
  nodes.push_back(std::move(root));

  while (!open.empty()) {
    const std::uint32_t idx = open.top().node;
    open.pop();
    admitter.frontier().expanding_depth = nodes[idx].depth;
    const std::size_t fan = nodes[idx].candidates.size();
    for (std::size_t i = 0; i < fan; ++i) {
      // Copy: admission appends to nodes, invalidating references.
      const Candidate cand = nodes[idx].candidates[i];
      Node node;
      switch (admitter.admit(nodes[idx].state, cand, node.events, node.state,
                             node.candidates)) {
        case Admission::kAdmitted: {
          node.parent = idx;
          node.depth = nodes[idx].depth +
                       static_cast<std::uint32_t>(node.events.size());
          stats.max_depth = std::max<std::uint64_t>(stats.max_depth,
                                                    node.depth);
          const auto id = static_cast<std::uint32_t>(nodes.size());
          open.push(entry_of(node.state, id));
          nodes.push_back(std::move(node));
          break;
        }
        case Admission::kPruned:
          break;
        case Admission::kGoal:
          out.trace = goal_trace(nodes, idx, node.events);
          return done(SearchStatus::kFeasible);
        case Admission::kStop:
          if (admitter.stop_status() == SearchStatus::kLimitReached) {
            stats.max_depth = std::max<std::uint64_t>(
                stats.max_depth, nodes[idx].depth + node.events.size());
          }
          return done(admitter.stop_status());
      }
    }
    // Expanded nodes keep their state (trace reconstruction only needs
    // events, but a vector arena cannot free per-element); release the
    // candidate buffer at least.
    nodes[idx].candidates = {};
  }
  // Frontier exhausted with an admissible, non-pruning order: every
  // reachable class was expanded, so infeasibility is proven.
  return done(SearchStatus::kInfeasible);
}

}  // namespace

SearchOutcome guided_search(const tpn::TimePetriNet& net,
                            const SchedulerOptions& options,
                            const GoalPredicate& goal) {
  EZRT_CHECK(options.search_engine == SearchEngine::kBestFirst,
             "guided_search requires the best-first engine");
  EZRT_CHECK(options.objective == Objective::kFirstFeasible,
             "the guided engine covers the first-feasible objective only");
  const tpn::Semantics semantics(net);
  const AdmissionRules rules(net, semantics, options, goal,
                             std::chrono::steady_clock::now(),
                             /*heuristic=*/true);
  return best_first(rules);
}

}  // namespace ezrt::sched
