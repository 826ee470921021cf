// Shared pieces of the benchmark program: spans timed around calls into
// each layer, summary statistics, pinned expectations, input pools and the
// result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- Spans --------------------------------------------------------------------

/// The layers the benchmark times from outside, one per public entry point.
/// kItem is the root span of one workload item (a chain or a request); its
/// self time is the glue between the layer calls.
enum Layer : std::uint8_t {
  kItem,
  kReadEzspec,      ///< pnml::read_ezspec
  kWriteEzspec,     ///< pnml::write_ezspec
  kBuildTpn,        ///< builder::build_tpn (through core::Project::build)
  kSearch,          ///< sched::DfsScheduler::search (Project::schedule)
  kExtract,         ///< sched::extract_schedule (Project::table)
  kValidate,        ///< runtime::validate_schedule
  kCodegen,         ///< codegen::generate
  kRunReport,       ///< core::run_report_json
  kFrame,           ///< serve::write_frame + serve::read_frame
  kJsonParse,       ///< serve::parse_json
  kParseRequest,    ///< serve::parse_request
  kPrepare,         ///< serve::prepare_request
  kCacheAcquire,    ///< serve::ScheduleCache::acquire
  kLayerCount
};

[[nodiscard]] const char* layer_metric(Layer layer);

/// In-memory span recorder. Disabled, it records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int open(Layer layer, int parent);
  void close(int span);

  /// Median self time per call, calls and summed self time, per layer.
  struct LayerSummary {
    double median_self_ms = 0.0;
    std::uint64_t calls = 0;
    double total_self_ms = 0.0;
  };
  [[nodiscard]] std::vector<LayerSummary> summarize() const;

  /// Summed duration of every span of `layer` whose root (kItem) span is
  /// marked with `tag`, and the summed root durations with that tag.
  void tag_root(int span, std::uint8_t tag);
  [[nodiscard]] double tagged_ms(std::uint8_t tag, Layer layer) const;
  [[nodiscard]] double tagged_root_ms(std::uint8_t tag) const;

  void clear() { spans_.clear(); }

 private:
  struct Span {
    Layer layer;
    std::uint8_t tag = 0;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, int parent)
      : tracer_(tracer), span_(tracer.open(layer, parent)) {}
  ~Scope() { tracer_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The highest percentile with at least ten samples beyond it: p99 from
/// 1,000 samples, p90 from 100, else the median.
struct Tail {
  double value_ms = 0.0;
  const char* label = "p50";
};
[[nodiscard]] Tail tail_latency(const std::vector<double>& latencies_ms);

[[nodiscard]] double mean(const std::vector<double>& values);

/// Latency statistics as medians over windows of one run: each window's
/// median, tail percentile and throughput (samples per second of summed
/// latency), then the median of each across windows. Transient stalls from
/// outside the program move one window, not the run.
struct Windowed {
  std::size_t windows = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  const char* tail_label = "p50";
  double throughput_per_s = 0.0;
};
[[nodiscard]] Windowed summarize_windows(
    const std::vector<std::vector<double>>& windows);

/// Peak resident set of this process (ru_maxrss) in MiB.
[[nodiscard]] double self_peak_rss_mb();

// -- Inputs and pins ----------------------------------------------------------

struct Input {
  std::string name;
  std::string document;  ///< ez-spec XML
};

/// Reads `<dir>/<pool>.specs`: ez-spec documents, each introduced by a
/// line "%% <name>".
[[nodiscard]] std::optional<std::vector<Input>> load_pool(
    const std::string& dir, const std::string& pool, std::string& error);

struct Pin {
  std::string verdict;
  std::optional<std::uint64_t> states;  ///< exact where deterministic
  std::optional<std::uint64_t> generated_bytes;  ///< C code bytes
};

/// pins.tsv: pool, input, verdict, states, generated bytes ("-" = not
/// pinned) and, for the record, the state count with which the
/// reduction-free oracle re-derived an infeasible verdict.
using Pins = std::map<std::string, Pin>;  // key: "<pool>/<input>"
[[nodiscard]] std::optional<Pins> load_pins(const std::string& path,
                                            std::string& error);
[[nodiscard]] std::string pin_key(const std::string& pool,
                                  const std::string& input);

// -- Result -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Accumulates failures (each with a reason) against attempts.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  ///< first few, for the log

  void fail(const std::string& why);
};

/// Prints the detail object (one line) and then the result line:
/// {"correct", "attempted", "failed", "metrics"}. Returns the exit code.
int print_result(const Outcome& outcome, const std::vector<Metric>& metrics,
                 const std::string& detail_json);

/// Every per-layer metric, in a fixed order and with its unit; a layer a
/// workload does not reach reads 0.
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values);

// -- Workloads ----------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pool_suffix;  ///< "" or "-heldout"
  std::string data_dir;     ///< directory holding inputs/ and pins.tsv
  std::string ezrt;         ///< the CLI binary (serve_mix spawns it)
  std::string scratch;      ///< writable directory for the socket
};

int run_closed_loop(const RunConfig& config);
int run_serve_mix(const RunConfig& config);
int make_inputs(const std::string& data_dir);
int make_pins(const std::string& data_dir);

}  // namespace perfbench
