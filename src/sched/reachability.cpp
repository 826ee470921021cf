#include "sched/reachability.hpp"

#include <chrono>
#include <deque>
#include <unordered_set>

#include "base/assert.hpp"
#include "base/cancel.hpp"
#include "base/time.hpp"
#include "obs/progress.hpp"

namespace ezrt::sched {

const char* to_string(ReachabilityStop stop) {
  switch (stop) {
    case ReachabilityStop::kComplete:
      return "complete";
    case ReachabilityStop::kStateBudget:
      return "state-budget";
    case ReachabilityStop::kTimeLimit:
      return "time-limit";
    case ReachabilityStop::kMemoryLimit:
      return "memory-limit";
    case ReachabilityStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// 128-bit fingerprints as in the DFS visited set.
struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(Fingerprint, Fingerprint) = default;
};

struct FingerprintHash {
  std::size_t operator()(Fingerprint f) const noexcept { return f.a; }
};

[[nodiscard]] Fingerprint fingerprint(const tpn::State& s) {
  Fingerprint f;
  f.a = s.hash();
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = hash_span<std::uint32_t>(s.marking().tokens(), h);
  for (std::size_t i = 0; i < s.clock_count(); ++i) {
    h = hash_mix(h, s.clock(TransitionId(static_cast<std::uint32_t>(i))));
  }
  f.b = h;
  return f;
}

}  // namespace

ReachabilityResult explore(const tpn::TimePetriNet& net,
                           const ReachabilityOptions& options) {
  EZRT_CHECK(net.validated(), "explore requires a validated net");
  const tpn::Semantics semantics(net);
  ReachabilityResult result;

  // Same guard surface as the search engines (docs/robustness.md), with
  // the same masking: cancellation each fired transition, wall clock
  // every 256, the memory estimate every 1024.
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = saturating_deadline(t0, options.wall_limit_ms);
  const std::uint64_t state_bytes =
      64 + net.place_count() * sizeof(std::uint32_t) +
      net.transition_count() * sizeof(Time);

  std::unordered_set<Fingerprint, FingerprintHash> visited;
  std::deque<tpn::State> frontier;

  // Masked publish cadence as in the search engines; BFS has no notion of
  // prunes, so the duplicate-hit count stands in, and the frontier size
  // feeds both the depth and queue gauges.
  std::uint64_t duplicates = 0;
  auto publish = [&](bool force) {
    if (options.progress == nullptr) {
      return;
    }
    if (force ||
        (result.states_explored & obs::ProgressSink::kPublishMask) == 0) {
      options.progress->publish(result.states_explored,
                                result.transitions_fired, duplicates,
                                frontier.size());
      if constexpr (obs::kTelemetryEnabled) {
        options.progress->queue.store(frontier.size(),
                                      std::memory_order_relaxed);
      }
    }
  };

  auto observe = [&](const tpn::State& s) {
    for (PlaceId p : net.place_ids()) {
      result.bound = std::max(result.bound, s.marking()[p]);
    }
    if (tpn::is_final_marking(net, s.marking())) {
      result.final_reachable = true;
    }
  };

  tpn::State s0 = tpn::State::initial(net);
  visited.insert(fingerprint(s0));
  observe(s0);
  frontier.push_back(std::move(s0));
  result.states_explored = 1;

  while (!frontier.empty()) {
    result.peak_frontier =
        std::max<std::uint64_t>(result.peak_frontier, frontier.size());
    const tpn::State s = std::move(frontier.front());
    frontier.pop_front();

    const auto fireable = semantics.fireable(s, /*priority_filter=*/false);
    if (fireable.empty()) {
      if (!tpn::is_final_marking(net, s.marking()) &&
          !tpn::has_deadline_miss(net, s.marking())) {
        result.deadlock_found = true;
      }
      continue;
    }

    for (const tpn::FireableTransition& f : fireable) {
      tpn::State next = semantics.fire(s, f.transition, f.earliest);
      ++result.transitions_fired;
      if (options.cancel != nullptr && options.cancel->requested()) {
        result.stop = ReachabilityStop::kCancelled;
        publish(true);
        return result;
      }
      if (options.wall_limit_ms != 0 &&
          (result.transitions_fired & 255) == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        result.stop = ReachabilityStop::kTimeLimit;
        publish(true);
        return result;
      }
      if (options.memory_limit_bytes != 0 &&
          (result.transitions_fired & 1023) == 0) {
        const std::uint64_t bytes =
            visited.bucket_count() * sizeof(void*) +
            visited.size() * (sizeof(Fingerprint) + sizeof(void*)) +
            frontier.size() * state_bytes;
        if (bytes > options.memory_limit_bytes) {
          result.stop = ReachabilityStop::kMemoryLimit;
          publish(true);
          return result;
        }
      }
      if (!visited.insert(fingerprint(next)).second) {
        ++duplicates;
        continue;
      }
      ++result.states_explored;
      observe(next);
      publish(false);
      if (tpn::has_deadline_miss(net, next.marking())) {
        // Observed but not expanded, mirroring the scheduler's pruning.
        result.miss_reachable = true;
        continue;
      }
      if (options.max_states != 0 &&
          result.states_explored >= options.max_states) {
        result.complete = false;
        result.stop = ReachabilityStop::kStateBudget;
        publish(true);
        return result;
      }
      frontier.push_back(std::move(next));
    }
  }

  result.complete = true;
  result.stop = ReachabilityStop::kComplete;
  publish(true);
  return result;
}

}  // namespace ezrt::sched
