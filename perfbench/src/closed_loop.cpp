// compile_mix and exhaustive_search: one client in a closed loop, each item
// the full compile chain on an input drawn from a pinned pool.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <random>

#include "chain.hpp"
#include "obs/json.hpp"

namespace perfbench {

using namespace ezrt;

namespace {

/// A multiple of 4, so a serial set-up visits each of 4 CPUs alike.
constexpr int kSetupRepeats = 12;

struct Item {
  const Input* input;
  const Pin* pin;
};

/// Seeded Fisher-Yates, independent of the standard library's shuffle.
void shuffle(std::vector<std::size_t>& order, std::mt19937_64& rng) {
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
}

/// Compares one chain result with its pin; returns "" when it matches.
std::string check(const ChainResult& r, const Item& item) {
  if (!r.check_error.empty()) {
    return r.check_error;
  }
  if (r.verdict != item.pin->verdict) {
    return "verdict " + r.verdict + ", pinned " + item.pin->verdict;
  }
  if (item.pin->states.has_value() &&
      r.stats.states_visited != *item.pin->states) {
    return "states_visited " + std::to_string(r.stats.states_visited) +
           ", pinned " + std::to_string(*item.pin->states);
  }
  if (item.pin->generated_bytes.has_value() &&
      r.code_bytes != *item.pin->generated_bytes) {
    return "generated bytes " + std::to_string(r.code_bytes) + ", pinned " +
           std::to_string(*item.pin->generated_bytes);
  }
  return "";
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        out.push_back(cpu);
      }
    }
  }
  return out;
}

void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  (void)::sched_setaffinity(0, sizeof set, &set);
}

struct Phase {
  std::vector<double> latencies_ms;
  std::vector<std::vector<double>> windows;  ///< whole windows only
  std::vector<ChainResult> results;  ///< traced phases only
  double wall_ms = 0.0;
  std::uint64_t passes = 0;
  std::uint64_t first_pass_bytes = 0;
};

/// Whole passes over the pool, each in a fresh seeded order, until
/// `seconds` have elapsed.
///
/// A serial chain stays on whichever CPU the scheduler gave it, and the
/// CPUs of a shared VM can differ in speed for minutes (one spec took
/// 5.2 ms on one vCPU of a 4-vCPU Xeon VM and 7.5 ms on another). So a
/// serial phase moves to the next allowed CPU at each window: every run
/// samples every CPU alike.
Phase run_phase(const std::vector<Item>& items,
                const sched::SchedulerOptions& options, double seconds,
                std::size_t window_passes, std::mt19937_64& rng,
                Tracer& tracer, Outcome& outcome) {
  Phase phase;
  std::vector<double> window;
  const std::vector<int> cpus =
      options.threads == 0 ? allowed_cpus() : std::vector<int>{};
  std::vector<std::size_t> order(items.size());
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    shuffle(order, rng);
    if (!cpus.empty() && window.empty()) {
      set_cpus({cpus[phase.windows.size() % cpus.size()]});
    }
    for (const std::size_t i : order) {
      ChainResult r = run_chain(items[i].input->document, options, tracer);
      ++outcome.attempted;
      if (const std::string why = check(r, items[i]); !why.empty()) {
        outcome.fail(items[i].input->name + ": " + why);
      }
      phase.latencies_ms.push_back(r.latency_ms);
      window.push_back(r.latency_ms);
      if (phase.passes == 0) {
        phase.first_pass_bytes += r.code_bytes;
      }
      if (tracer.enabled()) {
        phase.results.push_back(std::move(r));
      }
    }
    ++phase.passes;
    if (phase.passes % window_passes == 0) {
      phase.windows.push_back(std::move(window));
      window.clear();
    }
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  phase.wall_ms = ms_between(start, Clock::now());
  if (!cpus.empty()) {
    set_cpus(cpus);
  }
  if (phase.windows.empty()) {
    phase.windows.push_back(std::move(window));
  }
  return phase;
}

void write_latency(obs::JsonWriter& w, const Phase& p) {
  const std::vector<double>& lat = p.latencies_ms;
  const Tail tail = tail_latency(lat);
  const Windowed windowed = summarize_windows(p.windows);
  w.key("latency_ms").begin_object();
  w.member("samples", static_cast<std::uint64_t>(lat.size()));
  w.member("p50", percentile(lat, 0.5));
  w.member("p90", percentile(lat, 0.9));
  w.member("p99", percentile(lat, 0.99));
  w.member("tail_percentile", tail.label);
  w.member("mean", mean(lat));
  w.member("windows", static_cast<std::uint64_t>(windowed.windows));
  w.member("window_p50_median", windowed.p50_ms);
  w.member("window_tail_percentile", windowed.tail_label);
  w.member("window_tail_median", windowed.tail_ms);
  w.member("window_throughput_median", windowed.throughput_per_s);
  w.end_object();
}

}  // namespace

int run_closed_loop(const RunConfig& config) {
  const bool exhaustive = config.workload == "exhaustive_search";
  const std::string pool =
      std::string(exhaustive ? "exhaustive" : "compile") + config.pool_suffix;
  const sched::SchedulerOptions options =
      exhaustive ? exhaustive_options() : compile_options();
  // Windows of about a second: 1,020 compile items (a p99 per window) or
  // 120 exhaustive items (a p90 per window).
  const std::size_t window_passes = exhaustive ? 5 : 20;

  // Set-up: read the pool and the pins, then one warm-up pass. Repeated
  // so setup_s is a median; a serial set-up moves to the next allowed CPU
  // each time, as a serial phase does at each window.
  std::vector<Input> inputs;
  Pins pins;
  std::vector<Item> items;
  std::vector<double> setup_s;
  Outcome outcome;
  const std::vector<int> cpus =
      options.threads == 0 ? allowed_cpus() : std::vector<int>{};
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (!cpus.empty()) {
      set_cpus({cpus[static_cast<std::size_t>(k) % cpus.size()]});
    }
    const Clock::time_point t0 = Clock::now();
    std::string error;
    auto loaded = load_pool(config.data_dir + "/inputs", pool, error);
    auto loaded_pins =
        loaded ? load_pins(config.data_dir + "/pins.tsv", error) : std::nullopt;
    if (!loaded || !loaded_pins) {
      std::cerr << "perfbench: " << error << "\n";
      return 2;
    }
    inputs = std::move(*loaded);
    pins = std::move(*loaded_pins);
    items.clear();
    for (const Input& in : inputs) {
      auto it = pins.find(pin_key(pool, in.name));
      if (it == pins.end()) {
        std::cerr << "perfbench: no pin for " << pin_key(pool, in.name) << "\n";
        return 2;
      }
      items.push_back(Item{&in, &it->second});
    }
    Tracer off(false);
    for (const Item& item : items) {
      (void)run_chain(item.input->document, options, off);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  if (!cpus.empty()) {
    set_cpus(cpus);
  }

  std::mt19937_64 rng(config.seed);
  obs::JsonWriter w;
  w.begin_object();
  w.member("schema", "perfbench-detail");
  w.member("workload", config.workload);
  w.member("pool", pool);
  w.member("inputs", static_cast<std::uint64_t>(items.size()));
  w.member("seed", config.seed);
  w.member("setup_s_median", percentile(setup_s, 0.5));
  w.member("setup_repeats", static_cast<std::uint64_t>(setup_s.size()));
  w.member("loop", "closed, 1 client");
  w.member("search_threads", options.threads);

  std::vector<Metric> metrics;
  if (!config.trace) {
    Tracer off(false);
    const Phase p = run_phase(items, options, config.seconds, window_passes,
                              rng, off, outcome);
    const Windowed windowed = summarize_windows(p.windows);
    const double fail_ratio = static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted);
    w.member("passes", p.passes);
    write_latency(w, p);
    w.member("fail_ratio", fail_ratio);
    w.end_object();
    metrics = {
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"latency_p50_ms", windowed.p50_ms, "ms"},
        {"throughput_per_s", windowed.throughput_per_s, "1/s"},
        {"ok_ratio", 1.0 - fail_ratio, "ratio"},
        {"peak_rss_mb", self_peak_rss_mb(), "MiB"},
        {"generated_bytes", static_cast<double>(p.first_pass_bytes), "bytes"},
    };
    return print_result(outcome, metrics, w.take());
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half that gives the per-layer numbers.
  Tracer off(false);
  const Phase base = run_phase(items, options, config.seconds / 2,
                               window_passes, rng, off, outcome);
  sched::SchedulerOptions traced_options = options;
  traced_options.collect_telemetry = true;
  Tracer tracer(true);
  const Phase p = run_phase(items, traced_options, config.seconds / 2,
                            window_passes, rng, tracer, outcome);
  const double overhead = mean(p.latencies_ms) / mean(base.latencies_ms) - 1.0;

  const std::vector<Tracer::LayerSummary> layers = tracer.summarize();
  w.member("passes", p.passes);
  write_latency(w, p);
  w.member("traced_wall_ms", p.wall_ms);
  w.member("trace_overhead_ratio", overhead);
  w.key("layers").begin_object();
  for (int l = 0; l < kLayerCount; ++l) {
    const Tracer::LayerSummary& s = layers[l];
    w.key(layer_metric(static_cast<Layer>(l))).begin_object();
    w.member("median_self_ms", s.median_self_ms);
    w.member("calls", s.calls);
    w.member("share_of_wall", s.total_self_ms / p.wall_ms);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  double states = 0, fired = 0, pruned_visited = 0, pruned_doomed = 0,
         steals = 0, idle = 0, places = 0, transitions = 0, segments = 0,
         code_bytes = 0, report_bytes = 0, peak_visited = 0;
  double feasible = 0;
  for (const ChainResult& r : p.results) {
    states += static_cast<double>(r.stats.states_visited);
    fired += static_cast<double>(r.stats.transitions_fired);
    pruned_visited += static_cast<double>(r.stats.pruned_visited);
    pruned_doomed += static_cast<double>(r.stats.pruned_doomed);
    steals += static_cast<double>(r.steals);
    idle += static_cast<double>(r.idle_transitions);
    places += static_cast<double>(r.places);
    transitions += static_cast<double>(r.transitions);
    report_bytes += static_cast<double>(r.report_bytes);
    peak_visited =
        std::max(peak_visited, static_cast<double>(r.stats.peak_visited_bytes));
    if (r.verdict == "feasible") {
      segments += static_cast<double>(r.segments_checked);
      code_bytes += static_cast<double>(r.code_bytes);
      ++feasible;
    }
  }
  const double n = static_cast<double>(p.results.size());
  auto per = [](double total, double calls) {
    return calls > 0 ? total / calls : 0.0;
  };
  std::map<std::string, double> v;
  for (int l = kReadEzspec; l < kLayerCount; ++l) {
    v[layer_metric(static_cast<Layer>(l))] = layers[l].median_self_ms;
  }
  v["builder.places"] = per(places, n);
  v["builder.transitions"] = per(transitions, n);
  v["sched.search_share"] = layers[kSearch].total_self_ms / p.wall_ms;
  v["sched.states_visited"] = per(states, n);
  v["sched.transitions_fired"] = per(fired, n);
  v["sched.admit_ratio"] = per(states, fired);
  v["sched.pruned_visited"] = per(pruned_visited, n);
  v["sched.pruned_doomed"] = per(pruned_doomed, n);
  v["sched.steals"] = per(steals, n);
  v["sched.idle_transitions"] = per(idle, n);
  v["sched.peak_visited_bytes"] = peak_visited;
  v["runtime.segments_checked"] = per(segments, feasible);
  v["codegen.bytes"] = per(code_bytes, feasible);
  v["core.report_bytes"] = per(report_bytes, n);
  v["trace.overhead_ratio"] = overhead;
  metrics = per_layer_metrics(v);
  return print_result(outcome, metrics, w.take());
}

}  // namespace perfbench
