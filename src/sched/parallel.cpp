#include "sched/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sched/expansion.hpp"
#include "sched/visited_set.hpp"
#include "sched/work_stealing.hpp"
#include "tpn/semantics.hpp"

namespace ezrt::sched {

namespace {

using tpn::State;

/// An admitted search node handed between workers: the state (already
/// inserted into the visited set and counted) plus the full firing path
/// from s0 that produced it — needed so the finder of the goal can return
/// a complete trace without any global reconstruction step.
struct WorkItem {
  State state;
  Trace prefix;
  /// The state's expansion, computed at admission. The root item (the one
  /// with an empty prefix) is expanded by the worker that takes it.
  std::vector<Candidate> candidates;
};

struct Frame {
  State state;
  std::vector<Candidate> candidates;
  std::size_t next = 0;  ///< index of the next candidate to expand
  /// local_path length at the time this frame was pushed — the number of
  /// local events leading *into* this frame's state. With state classes
  /// off every edge is one event and path_base equals the frame index;
  /// with the corridor contraction an edge holds the whole forced chain.
  std::size_t path_base = 0;
  std::uint32_t events = 0;  ///< local_path events this frame contributed
};

// Every accepted thread count fits the growth margin LockFreeDigestTable
// checks at construction (max_threads < 0.3 * slots + 1).
static_assert(10 * std::size_t{kMaxThreads} <
                  3 * CasVisitedSet::kInitialSlots + 10,
              "kMaxThreads exceeds the visited set's growth margin");

/// Everything the workers share. Work moves through per-worker Chase-Lev
/// deques with steal-half (sched/work_stealing.hpp) and the visited set is
/// the lock-free CAS table (sched/visited_set.hpp) — the termination
/// protocol is still the idle-counting one: when every worker is parked at
/// once over an empty pool, the search space is exhausted and the last one
/// to park declares completion (docs/concurrency.md).
class ParallelSearch {
 public:
  ParallelSearch(const tpn::TimePetriNet& net,
                 const SchedulerOptions& options, const GoalPredicate& goal)
      : semantics_(net),
        rules_(net, semantics_, options, goal,
               std::chrono::steady_clock::now()),
        thread_count_(std::max<std::uint32_t>(1, options.threads)),
        visited_(std::max<std::size_t>(16, std::size_t{thread_count_} * 4),
                 thread_count_),
        progress_(options.progress),
        pool_(thread_count_,
              [this](std::uint32_t idle_now) { publish_idle(idle_now); }) {}

  SearchOutcome run();

 private:
  struct Worker;  // defined below

  // -- Work distribution ---------------------------------------------------

  /// Heap-allocates the item into the caller's own deque; ownership moves
  /// to whichever worker acquires it (or to the post-join drain).
  void push_work(std::uint32_t tid, WorkItem&& item) {
    pool_.push(tid, new WorkItem(std::move(item)));
  }

  /// Cooperative stop: wakes every parked worker and makes in-flight ones
  /// unwind at their next stop_ check. Items left in the deques are freed
  /// by the drain in run().
  void finish() {
    stop_.store(true, std::memory_order_release);
    pool_.shutdown();
  }

  [[nodiscard]] bool stopped() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Records the first guard verdict to fire and stops the search. The
  /// zero sentinel never collides with a real verdict: only the nonzero
  /// kTimeLimit/kMemoryLimit/kCancelled values are ever stored here.
  void trip_guard(SearchStatus status) {
    std::uint8_t expected = 0;
    guard_status_.compare_exchange_strong(expected,
                                          static_cast<std::uint8_t>(status),
                                          std::memory_order_relaxed);
    finish();
  }

  // -- Per-worker search ---------------------------------------------------

  /// A worker's view of the shared frontier: the lock-free visited set,
  /// the global admission counter, and its own frame stack for the memory
  /// estimate.
  struct SharedFrontier {
    ParallelSearch* search;
    const Worker* worker;

    [[nodiscard]] bool contains(const Fingerprint& key) const {
      return search->visited_.contains(tpn::StateDigest{key.a, key.b});
    }
    std::uint64_t insert(const Fingerprint& key) {
      if (!search->visited_.insert(tpn::StateDigest{key.a, key.b},
                                   worker->index)) {
        return 0;
      }
      return search->states_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    /// The frame-stack term extrapolates this worker's stack across the
    /// pool — an estimate; the visited set (the dominant term) is exact.
    [[nodiscard]] std::uint64_t memory_bytes() const {
      return search->visited_.memory_bytes() +
             worker->stack.size() * search->rules_.frame_bytes *
                 search->thread_count_;
    }
    [[nodiscard]] std::uint64_t depth() const {
      return worker->prefix_events + worker->local_path.size();
    }
  };

  struct Worker {
    std::uint32_t index;  ///< pool tid and visited-set epoch slot
    /// Expansion, admission, stats and blame counters of this worker,
    /// merged after the join (plain integers, never read concurrently).
    Admitter<SharedFrontier> admitter;
    /// Edge events of the admission in flight (one event, or a whole
    /// contracted corridor). Reused across admit() calls.
    Trace admit_events;
    std::vector<Frame> stack;
    /// Events entering frames 1..n of `stack` (the seed frame has none):
    /// local_path.size() == stack.size() - 1 whenever the stack is live.
    Trace local_path;
    std::size_t prefix_events = 0;  ///< current item's prefix length
    CandidatePool buffers;
    /// Items shared via the own deque (docs/observability.md). Steal/idle
    /// counts live in the pool's per-worker stats and are folded from
    /// there.
    std::uint64_t donations = 0;

    Worker(ParallelSearch* s, std::uint32_t tid)
        : index(tid), admitter(s->rules_, SharedFrontier{s, this}) {}
    /// The admitter's frontier points back at this worker.
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;
  };

  // -- Progress publishing -------------------------------------------------
  //
  // Write-only relaxed stores into the shared ProgressSink; nothing here is
  // ever read back by the search, so the verdict and counters stay
  // bit-identical with or without a sink (docs/semantics.md §8). The
  // admitted-state counters are published by each worker's Admitter.

  void publish_idle(std::uint32_t idle_now) noexcept {
    if constexpr (obs::kTelemetryEnabled) {
      if (progress_ != nullptr) {
        progress_->idle_workers.store(idle_now, std::memory_order_relaxed);
        progress_->queue.store(pool_.pending(), std::memory_order_relaxed);
      }
    } else {
      (void)idle_now;
    }
  }

  /// Declares the goal found: the winning trace is the item prefix, the
  /// worker's local path up to the parent frame, and the in-flight edge.
  void declare_goal(Worker& w, const WorkItem& item,
                    std::size_t parent_path_len) {
    std::lock_guard<std::mutex> lock(result_mu_);
    if (!found_) {
      found_ = true;
      winning_ = item.prefix;
      winning_.insert(winning_.end(), w.local_path.begin(),
                      w.local_path.begin() +
                          static_cast<std::ptrdiff_t>(parent_path_len));
      winning_.insert(winning_.end(), w.admit_events.begin(),
                      w.admit_events.end());
    }
    finish();
  }

  /// Fires one candidate of `frame` through the shared admission rule.
  /// Returns true when a child was admitted into `next` / `cands` (its
  /// edge in `w.admit_events`); false when it was pruned *or* the search
  /// just ended (goal, budget or guard — the caller checks stopped()).
  bool admit(Worker& w, const Frame& frame, const Candidate& cand,
             const WorkItem& item, State& next,
             std::vector<Candidate>& cands) {
    w.admit_events.clear();
    switch (w.admitter.admit(frame.state, cand, w.admit_events, next,
                             cands)) {
      case Admission::kAdmitted:
        return true;
      case Admission::kPruned:
        return false;
      case Admission::kGoal:
        declare_goal(w, item, frame.path_base);
        return false;
      case Admission::kStop:
        if (w.admitter.stop_status() == SearchStatus::kLimitReached) {
          limit_hit_.store(true, std::memory_order_relaxed);
          finish();
        } else {
          trip_guard(w.admitter.stop_status());
        }
        return false;
    }
    return false;
  }

  /// Donates pending candidates from the *shallowest* unexhausted frame
  /// into the worker's own deque while other workers are hungry — shallow
  /// siblings root the largest unexplored subtrees, so sharing them keeps
  /// the stolen work coarse. The push is an uncontended bottom append;
  /// hungry peers take the donations from the top via steal-half.
  void maybe_offload(Worker& w, const WorkItem& item) {
    if (thread_count_ == 1) {
      return;
    }
    const std::size_t hunger = thread_count_;
    if (pool_.pending() >= hunger) {
      return;
    }
    for (std::size_t i = 0; i < w.stack.size() && !stopped(); ++i) {
      Frame& frame = w.stack[i];
      // Keep the frame's last pending candidate for ourselves when it is
      // the top frame — a worker must not starve itself into a pop/push
      // cycle on its own donations.
      const bool top = i + 1 == w.stack.size();
      while (frame.next + (top ? 1 : 0) < frame.candidates.size() &&
             pool_.pending() < hunger) {
        const Candidate cand = frame.candidates[frame.next++];
        WorkItem shared;
        shared.candidates = w.buffers.take();
        if (!admit(w, frame, cand, item, shared.state, shared.candidates)) {
          w.buffers.give(std::move(shared.candidates));
          if (stopped()) {
            return;
          }
          continue;
        }
        shared.prefix = item.prefix;
        shared.prefix.insert(shared.prefix.end(), w.local_path.begin(),
                             w.local_path.begin() +
                                 static_cast<std::ptrdiff_t>(frame.path_base));
        shared.prefix.insert(shared.prefix.end(), w.admit_events.begin(),
                             w.admit_events.end());
        push_work(w.index, std::move(shared));
        ++w.donations;
      }
      if (frame.next < frame.candidates.size()) {
        return;  // donated enough; deeper frames stay ours
      }
    }
  }

  /// Depth-first exploration of the subtree rooted at `item.state`.
  void run_subtree(Worker& w, WorkItem item) {
    w.stack.clear();
    w.local_path.clear();
    w.prefix_events = item.prefix.size();

    Frame root;
    root.state = std::move(item.state);
    root.candidates = std::move(item.candidates);
    if (item.prefix.empty()) {
      w.admitter.expander().expand(root.state, root.candidates);
    }
    w.stack.push_back(std::move(root));

    while (!w.stack.empty()) {
      if (stopped()) {
        return;
      }
      maybe_offload(w, item);
      if (stopped()) {
        return;
      }
      Frame& frame = w.stack.back();
      SearchStats& stats = w.admitter.stats();
      stats.max_depth = std::max<std::uint64_t>(
          stats.max_depth, item.prefix.size() + w.local_path.size() + 1);
      if (frame.next >= frame.candidates.size()) {
        w.local_path.resize(w.local_path.size() - frame.events);
        w.buffers.give(std::move(frame.candidates));
        w.stack.pop_back();
        ++stats.backtracks;
        continue;
      }
      const Candidate cand = frame.candidates[frame.next++];
      Frame child;
      child.candidates = w.buffers.take();
      if (!admit(w, frame, cand, item, child.state, child.candidates)) {
        w.buffers.give(std::move(child.candidates));
        continue;  // pruned, or the search ended (checked at loop head)
      }
      w.local_path.insert(w.local_path.end(), w.admit_events.begin(),
                          w.admit_events.end());
      child.path_base = w.local_path.size();
      child.events = static_cast<std::uint32_t>(w.admit_events.size());
      w.stack.push_back(std::move(child));
    }
  }

  void worker_main(std::uint32_t index, WorkerTelemetry& out,
                   AttributionCounters& attribution_out) {
    Worker w(this, index);
    obs::Span span(rules_.options.tracer, "search-worker", "sched");
    span.set_args("{\"worker\":" + std::to_string(index) + "}");
    // Bounded park only when a guard is armed, so a parked worker still
    // notices a SIGINT or an expired wall limit even when no peer ever
    // wakes it; unguarded searches park indefinitely.
    const auto poll = std::chrono::milliseconds(rules_.guarded ? 20 : 0);
    using Pool = WorkStealingPool<WorkItem*>;
    try {
      for (;;) {
        WorkItem* raw = nullptr;
        const Pool::Acquire r = pool_.acquire(index, raw, poll);
        if (r == Pool::Acquire::kDone) {
          break;
        }
        if (r == Pool::Acquire::kTimeout) {
          if (auto tripped = rules_.guard.check_now(
                  [&] { return visited_.memory_bytes(); })) {
            trip_guard(*tripped);
          }
          continue;
        }
        std::unique_ptr<WorkItem> item(raw);
        run_subtree(w, std::move(*item));
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(result_mu_);
        if (!failure_) {
          failure_ = std::current_exception();
        }
      }
      finish();
    }
    out = w.admitter.telemetry(index);
    out.donations = w.donations;
    out.steals = pool_.stats(index).steals;
    out.idle_transitions = pool_.stats(index).idle_transitions;
    attribution_out = w.admitter.take_attribution();
  }

  tpn::Semantics semantics_;
  /// Shared read-only after construction; evaluate() scratch is per-worker.
  AdmissionRules rules_;
  std::uint32_t thread_count_;
  CasVisitedSet visited_;
  obs::ProgressSink* progress_;
  WorkStealingPool<WorkItem*> pool_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> limit_hit_{false};
  std::atomic<std::uint64_t> states_{0};
  /// First resource-guard verdict (as SearchStatus), 0 = none tripped.
  std::atomic<std::uint8_t> guard_status_{0};

  std::mutex result_mu_;
  bool found_ = false;
  Trace winning_;
  std::exception_ptr failure_;
};

SearchOutcome ParallelSearch::run() {
  const auto t0 = std::chrono::steady_clock::now();
  SearchOutcome out;

  // The root always counts; the worker that takes it expands it.
  State s0 = State::initial(rules_.net);
  bool capped = false;
  const Fingerprint root_key = rules_.key(s0, capped);
  visited_.insert(tpn::StateDigest{root_key.a, root_key.b}, 0);
  states_.store(1, std::memory_order_relaxed);

  if (rules_.goal_reached(s0)) {
    out.status = SearchStatus::kFeasible;
    out.stats.states_visited = 1;
    out.stats.peak_visited_bytes = visited_.memory_bytes();
    out.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return out;
  }

  // Seed worker 0's deque before the spawns; the thread-creation edge
  // makes the owner-side push visible to everyone.
  push_work(0, WorkItem{std::move(s0), Trace{}, {}});

  std::vector<WorkerTelemetry> per_worker(thread_count_);
  std::vector<AttributionCounters> per_attribution(thread_count_);
  std::vector<std::thread> threads;
  threads.reserve(thread_count_);
  for (std::uint32_t i = 0; i < thread_count_; ++i) {
    threads.emplace_back([this, &per_worker, &per_attribution, i] {
      worker_main(i, per_worker[i], per_attribution[i]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Early stops (goal, budget, guard) leave unexplored items behind.
  pool_.drain([](WorkItem* item) { delete item; });
  if (failure_) {
    std::rethrow_exception(failure_);
  }

  SearchStats& stats = out.stats;
  stats.states_visited = states_.load(std::memory_order_relaxed);
  for (const WorkerTelemetry& wt : per_worker) {
    const SearchStats& ws = wt.stats;
    stats.transitions_fired += ws.transitions_fired;
    stats.backtracks += ws.backtracks;
    stats.pruned_deadline += ws.pruned_deadline;
    stats.pruned_visited += ws.pruned_visited;
    stats.pruned_priority += ws.pruned_priority;
    stats.pruned_doomed += ws.pruned_doomed;
    stats.classes_merged += ws.classes_merged;
    stats.max_depth = std::max(stats.max_depth, ws.max_depth);
  }
  // Per-worker blame counters merge like the stats above: element-wise
  // sums of deterministic per-edge counts (docs/explain.md §4).
  for (AttributionCounters& wa : per_attribution) {
    out.attribution.merge(wa);
  }
  stats.peak_visited_bytes = visited_.memory_bytes();
  if (progress_ != nullptr) {
    // Final unmasked publish with the folded totals (see serial engine).
    progress_->publish(stats.states_visited, stats.transitions_fired,
                       stats.pruned_deadline + stats.pruned_visited,
                       stats.max_depth);
  }

  // End-of-search collection only: by here every worker has joined, so the
  // breakdowns are exact and gathering them cannot perturb the search.
  if (rules_.options.collect_telemetry) {
    out.telemetry.collected = true;
    for (const WorkerTelemetry& wt : per_worker) {
      out.telemetry.reduction_singletons += wt.reduction_singletons;
    }
    out.telemetry.workers = std::move(per_worker);
    out.telemetry.shards = visited_.shard_stats();
  }

  // A goal found concurrently with the state budget or a resource guard
  // running out counts as feasible — same preference order as the serial
  // engine, which tests the goal before the limits. Among the losers, a
  // guard verdict (time/memory/cancel) outranks the state budget: it
  // names the ceiling the operator actually configured tightest.
  const std::uint8_t tripped =
      guard_status_.load(std::memory_order_relaxed);
  if (found_) {
    out.status = SearchStatus::kFeasible;
    out.trace = std::move(winning_);
  } else if (tripped != 0) {
    out.status = static_cast<SearchStatus>(tripped);
  } else if (limit_hit_.load(std::memory_order_relaxed)) {
    out.status = SearchStatus::kLimitReached;
  } else {
    out.status = SearchStatus::kInfeasible;
  }
  stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return out;
}

/// Serial re-derivation for the deterministic toggle.
[[nodiscard]] SearchOutcome serial_search(const tpn::TimePetriNet& net,
                                          SchedulerOptions options,
                                          const GoalPredicate& goal) {
  options.threads = 0;
  DfsScheduler scheduler(net, options);
  scheduler.set_goal(goal);
  return scheduler.search();
}

}  // namespace

SearchOutcome parallel_search(const tpn::TimePetriNet& net,
                              const SchedulerOptions& options,
                              const GoalPredicate& goal) {
  EZRT_CHECK(options.threads >= 1,
             "parallel_search requires options.threads >= 1");
  EZRT_CHECK(options.objective == Objective::kFirstFeasible,
             "parallel_search supports the kFirstFeasible objective only");

  SearchOutcome out = ParallelSearch(net, options, goal).run();

  if (options.deterministic && (out.status == SearchStatus::kFeasible ||
                                out.status == SearchStatus::kLimitReached)) {
    // A parallel kInfeasible verdict means the pruned graph was exhausted
    // below the state budget — every interleaving reproduces it, so it
    // passes through (where exhaustive exploration makes parallelism
    // pay). Anything the parallel engine won a race for is re-derived:
    // the winning trace is first-past-the-post, and with a bounded
    // budget, *which* of feasible/limit-reached wins depends on whether
    // some worker reached M_F before the global counter hit the budget.
    // The serial outcome is canonical and returned as-is, whichever
    // verdict it lands on. Guard verdicts (time/memory/cancel) already
    // passed through above — they are timing-dependent by nature.
    //
    // The two phases are reported separately (parallel_verdict_ms vs the
    // serial phase's own stats.elapsed_ms) so the cost of the determinism
    // toggle is visible instead of folded into one opaque number.
    const double verdict_ms = out.stats.elapsed_ms;
    out = serial_search(net, options, goal);
    out.parallel_verdict_ms = verdict_ms;
  }
  return out;
}

}  // namespace ezrt::sched
