#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

const char* layer_metric(Layer layer) {
  switch (layer) {
    case kItem:
      return "item.glue_ms";
    case kReadEzspec:
      return "pnml.read_ezspec_ms";
    case kWriteEzspec:
      return "pnml.write_ezspec_ms";
    case kBuildTpn:
      return "builder.build_tpn_ms";
    case kSearch:
      return "sched.search_ms";
    case kExtract:
      return "sched.extract_schedule_ms";
    case kValidate:
      return "runtime.validate_ms";
    case kCodegen:
      return "codegen.generate_ms";
    case kRunReport:
      return "core.run_report_ms";
    case kFrame:
      return "serve.frame_ms";
    case kJsonParse:
      return "serve.json_parse_ms";
    case kParseRequest:
      return "serve.parse_request_ms";
    case kPrepare:
      return "serve.prepare_ms";
    case kCacheAcquire:
      return "serve.cache_acquire_ms";
    case kLayerCount:
      break;
  }
  return "?";
}

int Tracer::open(Layer layer, int parent) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{layer, 0, parent, Clock::now(), {}});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].end = Clock::now();
  }
}

void Tracer::tag_root(int span, std::uint8_t tag) {
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].tag = tag;
  }
}

std::vector<Tracer::LayerSummary> Tracer::summarize() const {
  // Self time: a span's duration minus the durations of its children.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += ms_between(spans_[i].start, spans_[i].end);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          ms_between(spans_[i].start, spans_[i].end);
    }
  }
  std::vector<std::vector<double>> per_layer(kLayerCount);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    per_layer[spans_[i].layer].push_back(self[i]);
  }
  std::vector<LayerSummary> out(kLayerCount);
  for (std::size_t l = 0; l < per_layer.size(); ++l) {
    out[l].calls = per_layer[l].size();
    out[l].total_self_ms =
        std::accumulate(per_layer[l].begin(), per_layer[l].end(), 0.0);
    out[l].median_self_ms = percentile(std::move(per_layer[l]), 0.5);
  }
  return out;
}

double Tracer::tagged_ms(std::uint8_t tag, Layer layer) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].tag == tag) {
      total += ms_between(s.start, s.end);
    }
  }
  return total;
}

double Tracer::tagged_root_ms(std::uint8_t tag) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == kItem && s.tag == tag) {
      total += ms_between(s.start, s.end);
    }
  }
  return total;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

Tail tail_latency(const std::vector<double>& latencies_ms) {
  if (latencies_ms.size() >= 1000) {
    return {percentile(latencies_ms, 0.99), "p99"};
  }
  if (latencies_ms.size() >= 100) {
    return {percentile(latencies_ms, 0.90), "p90"};
  }
  return {percentile(latencies_ms, 0.50), "p50"};
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Windowed summarize_windows(const std::vector<std::vector<double>>& windows) {
  Windowed out;
  std::size_t smallest = SIZE_MAX;
  for (const std::vector<double>& w : windows) {
    smallest = std::min(smallest, w.size());
  }
  if (windows.empty() || smallest == 0) {
    return out;
  }
  // One percentile for every window, chosen by the smallest.
  const Tail rule = tail_latency(std::vector<double>(smallest, 0.0));
  const double q = rule.label[1] == '9' ? (rule.label[2] == '9' ? 0.99 : 0.90)
                                        : 0.5;
  std::vector<double> p50, tail, throughput;
  for (const std::vector<double>& w : windows) {
    p50.push_back(percentile(w, 0.5));
    tail.push_back(percentile(w, q));
    throughput.push_back(1000.0 / mean(w));
  }
  out.windows = windows.size();
  out.tail_label = rule.label;
  out.p50_ms = percentile(p50, 0.5);
  out.tail_ms = percentile(tail, 0.5);
  out.throughput_per_s = percentile(throughput, 0.5);
  return out;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::optional<std::vector<Input>> load_pool(const std::string& dir,
                                            const std::string& pool,
                                            std::string& error) {
  const std::string path = dir + "/" + pool + ".specs";
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return std::nullopt;
  }
  std::vector<Input> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("%% ", 0) == 0) {
      out.push_back(Input{line.substr(3), ""});
    } else if (!out.empty()) {
      out.back().document += line;
      out.back().document += '\n';
    }
  }
  if (out.empty()) {
    error = path + " holds no inputs";
    return std::nullopt;
  }
  return out;
}

std::string pin_key(const std::string& pool, const std::string& input) {
  return pool + "/" + input;
}

namespace {

std::optional<std::uint64_t> parse_count(const std::string& field) {
  if (field == "-") {
    return std::nullopt;
  }
  return std::stoull(field);
}

}  // namespace

std::optional<Pins> load_pins(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return std::nullopt;
  }
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string pool, input, verdict, states, bytes, oracle;
    if (!(fields >> pool >> input >> verdict >> states >> bytes >> oracle)) {
      error = "malformed pin line: " + line;
      return std::nullopt;
    }
    pins[pin_key(pool, input)] =
        Pin{verdict, parse_count(states), parse_count(bytes)};
  }
  return pins;
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (reasons.size() < 8) {
    reasons.push_back(why);
  }
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

int print_result(const Outcome& outcome, const std::vector<Metric>& metrics,
                 const std::string& detail_json) {
  for (const std::string& why : outcome.reasons) {
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
  std::cout << detail_json << "\n";
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += i == 0 ? "" : ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values) {
  static constexpr const char* kPerLayer[][2] = {
      {"pnml.read_ezspec_ms", "ms"},
      {"pnml.write_ezspec_ms", "ms"},
      {"builder.build_tpn_ms", "ms"},
      {"builder.places", "count"},
      {"builder.transitions", "count"},
      {"sched.search_ms", "ms"},
      {"sched.search_share", "ratio"},
      {"sched.states_visited", "count"},
      {"sched.transitions_fired", "count"},
      {"sched.admit_ratio", "ratio"},
      {"sched.pruned_visited", "count"},
      {"sched.pruned_doomed", "count"},
      {"sched.steals", "count"},
      {"sched.idle_transitions", "count"},
      {"sched.peak_visited_bytes", "bytes"},
      {"sched.extract_schedule_ms", "ms"},
      {"runtime.validate_ms", "ms"},
      {"runtime.segments_checked", "count"},
      {"codegen.generate_ms", "ms"},
      {"codegen.bytes", "bytes"},
      {"core.run_report_ms", "ms"},
      {"core.report_bytes", "bytes"},
      {"serve.frame_ms", "ms"},
      {"serve.json_parse_ms", "ms"},
      {"serve.parse_request_ms", "ms"},
      {"serve.prepare_ms", "ms"},
      {"serve.cache_acquire_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.hit_layer_share", "ratio"},
      {"serve.coalesced", "count"},
      {"serve.evictions", "count"},
      {"serve.sheds", "count"},
      {"serve.degrades", "count"},
      {"serve.peak_queue_depth", "count"},
      {"serve.queue_wait_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

}  // namespace perfbench
