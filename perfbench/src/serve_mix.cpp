// serve_mix: load against a spawned `ezrt serve --workers 2` on a unix
// socket. About 80% of requests name one of 16 hot specs (cache hits after
// warm-up); the rest are never-repeated renamings of 10-task specs (misses
// that run the search). Three live phases, in order:
//
//  - serial: one connection in a closed loop; its round trips give the
//    gated latency;
//  - saturated: one connection per CPU (at most 4) in a closed loop; its
//    completions per second give the gated throughput;
//  - ladder: an open loop at a fixed ladder of arrival rates, each request
//    timed from its due time; it gives the rung table, the highest passing
//    rate, the generator's lag and the server's queue and shed counters.
//
// The traced run also replays the nominal rung's request stream serially
// and in-process through the public serve functions, which gives the serve
// per-layer split without recording inside the server.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/project.hpp"
#include "core/response.hpp"
#include "core/run_report.hpp"
#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/json_in.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"

extern char** environ;

namespace perfbench {

using namespace ezrt;

namespace {

/// Arrival rates of the ladder (requests/s), run in ascending order. The
/// ladder stops at the first rung that misses the limit. It tops out well
/// below the server's capacity (about 10k/s with 2 workers on 4 CPUs): a
/// rung near capacity passes or fails with the host's load, not the code.
constexpr double kLadder[] = {2000, 4000, 6000};
/// The rung whose stream the traced run replays.
constexpr std::size_t kNominalRung = 0;
/// A rung passes when its p99 latency, measured from each request's due
/// time, and the lateness of its last requests both stay within this.
constexpr double kLimitMs = 50.0;
constexpr double kHotShare = 0.8;
/// Latency windows: 1,200 requests at the nominal rate, so each holds the
/// 1,000 a p99 needs even with Poisson arrivals.
constexpr double kWindowMs = 600.0;
/// Windows of the closed-loop phases; gated figures are medians over them.
constexpr double kClosedWindowMs = 500.0;
/// Shares of the run taken by the serial and the saturated phase; the
/// ladder takes the rest.
constexpr double kSerialShare = 0.35;
constexpr double kSaturatedShare = 0.35;
constexpr int kSetupRepeats = 12;
constexpr std::uint32_t kServerWorkers = 2;
constexpr std::size_t kCacheEntries = 128;  // the server's default

// -- Child server process -----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& ezrt, const std::string& endpoint) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const std::string workers = std::to_string(kServerWorkers);
    std::vector<std::string> args = {ezrt,      "serve",   "--socket",
                                     endpoint,  "--workers", workers};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, ezrt.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] bool spawned() const { return pid_ > 0; }

  /// Peak resident set (VmHWM) of the server, in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  /// SIGTERM (the server drains), then SIGKILL after 5 s; always reaps.
  void stop() {
    if (pid_ <= 0) {
      return;
    }
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One framed round trip; nullopt on a transport error.
  std::optional<std::string> call(const std::string& payload) {
    if (!serve::write_frame(fd_, payload).ok()) {
      return std::nullopt;
    }
    auto frame = serve::read_frame(fd_);
    if (!frame.ok() || !frame.value().has_value()) {
      return std::nullopt;
    }
    return std::move(*frame.value());
  }

 private:
  int fd_;
};

std::unique_ptr<Connection> connect_with_retry(const std::string& endpoint) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    if (auto fd = serve::connect_endpoint(endpoint); fd.ok()) {
      return std::make_unique<Connection>(fd.value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return nullptr;
}

// -- Requests and responses ---------------------------------------------------

struct Request {
  std::size_t spec = 0;  ///< index into hot (hot) or miss bases (miss)
  bool hot = true;
  double due_ms = 0.0;  ///< offset from the rung's start
  std::string id;       ///< unique; a miss renames its spec after it
};

std::string request_json(const std::string& id, const std::string& op,
                         const std::string* spec) {
  obs::JsonWriter w;
  w.begin_object();
  w.member("schema", "ezrt-serve-request");
  w.member("version", std::uint64_t{1});
  w.member("id", id);
  w.member("op", op);
  if (spec != nullptr) {
    w.member("spec", *spec);
  }
  w.end_object();
  return w.take();
}

/// The document with its root `name` attribute replaced, so the canonical
/// spec, and with it the cache digest, is new.
std::string renamed(const std::string& document, const std::string& name) {
  const std::size_t root = document.find("<rt:ez-spec");
  const std::size_t attr = document.find(" name=\"", root);
  const std::size_t end = document.find('"', attr + 7);
  return document.substr(0, attr + 7) + name + document.substr(end);
}

/// The raw report object embedded in a response, or "" without one. Hits
/// must carry the very bytes of the first (miss) report for their digest.
std::string_view report_of(std::string_view response) {
  const std::size_t pos = response.find(",\"report\":");
  if (pos == std::string_view::npos || response.size() < pos + 11) {
    return {};
  }
  return response.substr(pos + 10, response.size() - pos - 11);
}

/// The member at `path` below `v`, or nullptr when any step is missing.
const serve::JsonValue* member(const serve::JsonValue& v,
                               std::initializer_list<std::string_view> path) {
  const serve::JsonValue* at = &v;
  for (const std::string_view key : path) {
    at = at->find(key);
    if (at == nullptr) {
      return nullptr;
    }
  }
  return at;
}

std::string text(const serve::JsonValue& v, std::string_view key) {
  const serve::JsonValue* f = v.find(key);
  return f != nullptr && f->is_string() ? f->string : std::string();
}

/// Inputs of one run: the pools, their pins and the reference report of
/// every hot spec, taken from its first (miss) response.
struct Mix {
  std::vector<Input> hot;
  std::vector<Input> miss;
  std::vector<const Pin*> hot_pins;
  std::vector<const Pin*> miss_pins;
  std::vector<std::string> hot_reports;
  std::vector<std::string> hot_payloads;  ///< shared by every hot request
};

/// The request frame: the shared hot payload, or a miss base renamed
/// after the request id, so its digest was never seen before.
std::string payload(const Mix& mix, const Request& r) {
  if (r.hot) {
    return mix.hot_payloads[r.spec];
  }
  const Input& base = mix.miss[r.spec];
  const std::string doc = renamed(base.document, base.name + "-" + r.id);
  return request_json(r.id, "schedule", &doc);
}

/// Checks one schedule response; returns "" when it is correct. `hit` is
/// set when the server answered from its cache.
std::string check_response(const Mix& mix, const Request& r,
                           const std::string& response, bool* hit = nullptr) {
  const Result<serve::JsonValue> parsed = serve::parse_json(response);
  if (!parsed.ok()) {
    return "unparsable response: " + parsed.error().to_string();
  }
  const serve::JsonValue& v = parsed.value();
  if (text(v, "status") != "ok") {
    return "status " + text(v, "status") + ": " + text(v, "error");
  }
  const std::string cache = text(v, "cache");
  if (hit != nullptr) {
    *hit = cache == "hit";
  }
  const Pin& pin = r.hot ? *mix.hot_pins[r.spec] : *mix.miss_pins[r.spec];
  if (const std::string verdict = text(v, "verdict"); verdict != pin.verdict) {
    return "verdict " + verdict + ", pinned " + pin.verdict;
  }
  if (r.hot) {
    if (report_of(response) != mix.hot_reports[r.spec]) {
      return "report differs from the first response for this digest";
    }
    return "";
  }
  if (cache != "miss") {
    return "a never-repeated spec answered as " + cache;
  }
  const serve::JsonValue* states =
      member(v, {"report", "search", "states_visited"});
  if (pin.states.has_value() &&
      (states == nullptr || !states->is_uint ||
       states->uint_value != *pin.states)) {
    return "states_visited differs from the pin";
  }
  return "";
}

/// The seeded request stream of one rung.
std::vector<Request> make_stream(const Mix& mix, double rate, double seconds,
                                 std::size_t rung, std::uint64_t seed,
                                 std::mt19937_64& rng) {
  std::vector<Request> out;
  std::exponential_distribution<double> gap(rate / 1000.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += gap(rng);
    if (t >= seconds * 1000.0) {
      break;
    }
    Request r;
    r.due_ms = t;
    r.hot = coin(rng) < kHotShare;
    r.spec = rng() % (r.hot ? mix.hot.size() : mix.miss.size());
    r.id = "s" + std::to_string(seed) + "-r" + std::to_string(rung) + "-" +
           std::to_string(i);
    out.push_back(std::move(r));
  }
  return out;
}

struct RungResult {
  double rate = 0.0;
  std::vector<double> latencies_ms;  ///< from due time to response
  std::vector<double> lag_ms;        ///< send time minus due time
  double final_lag_ms = 0.0;  ///< median lag over the rung's last second
  double completion_ms = 0.0;        ///< last response, from rung start
  /// Latency medians over the rung's windows (by due time).
  Windowed windowed;
  std::uint64_t hits = 0;
  bool passed = false;
};

/// Runs one rung open loop: `connections` client threads take requests in
/// due order, wait for each due time, and time it from then.
RungResult run_rung(const std::string& endpoint, const Mix& mix,
                    const std::vector<Request>& stream, double rate,
                    double seconds, std::size_t connections,
                    Outcome& outcome) {
  RungResult result;
  result.rate = rate;
  std::atomic<std::size_t> next{0};
  std::vector<double> latency(stream.size()), lag(stream.size()),
      done(stream.size());
  std::vector<std::string> errors(stream.size());
  std::vector<char> hit(stream.size(), 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      auto conn = connect_with_retry(endpoint);
      for (std::size_t i = next++; i < stream.size(); i = next++) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            stream[i].due_ms));
        const std::string frame = payload(mix, stream[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        std::optional<std::string> response;
        if (conn != nullptr) {
          response = conn->call(frame);
        }
        const Clock::time_point received = Clock::now();
        lag[i] = ms_between(due, sent);
        latency[i] = ms_between(due, received);
        done[i] = ms_between(start, received);
        if (!response.has_value()) {
          errors[i] = "transport error";
          continue;
        }
        bool was_hit = false;
        errors[i] = check_response(mix, stream[i], *response, &was_hit);
        hit[i] = was_hit;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  bool clean = true;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ++outcome.attempted;
    if (!errors[i].empty()) {
      outcome.fail("rate " + std::to_string(static_cast<int>(rate)) + ": " +
                   errors[i]);
      clean = false;
    }
    result.hits += static_cast<std::uint64_t>(hit[i]);
    result.completion_ms = std::max(result.completion_ms, done[i]);
  }
  // Whole windows only; at least one.
  std::vector<std::vector<double>> windows(std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * 1000.0 / kWindowMs)));
  std::vector<double> final_lags;
  const double end_ms = stream.empty() ? 0.0 : stream.back().due_ms;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto w = static_cast<std::size_t>(stream[i].due_ms / kWindowMs);
    windows[std::min(w, windows.size() - 1)].push_back(latency[i]);
    if (stream[i].due_ms >= end_ms - 1000.0) {
      final_lags.push_back(lag[i]);
    }
  }
  result.windowed = summarize_windows(windows);
  result.final_lag_ms = percentile(final_lags, 0.5);
  result.latencies_ms = std::move(latency);
  result.lag_ms = std::move(lag);
  // A growing backlog shows as requests still sent late at the rung's end.
  result.passed = clean && result.windowed.tail_ms <= kLimitMs &&
                  result.final_lag_ms <= kLimitMs;
  return result;
}

struct ClosedResult {
  std::vector<double> latencies_ms;
  std::size_t windows = 0;
  double p50_ms = 0.0;  ///< median over windows of each window's p50
  double throughput_per_s = 0.0;  ///< median over windows of completions/s
};

/// Runs a closed loop against the live server: `connections` client
/// threads, each sending its next request when the previous answer is in,
/// for whole windows of kClosedWindowMs. Each thread draws its requests
/// from its own seeded generator. A request counts in the window in which
/// its answer arrived.
ClosedResult run_closed(const std::string& endpoint, const Mix& mix,
                        std::size_t connections, double seconds,
                        const std::string& phase, std::uint64_t phase_id,
                        std::uint64_t seed, Outcome& outcome) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * 1000.0 / kClosedWindowMs));
  struct Sample {
    double done_ms;
    double latency_ms;
    std::string error;
  };
  std::vector<std::vector<Sample>> samples(connections);
  const Clock::time_point start = Clock::now();
  const double end_ms = static_cast<double>(windows) * kClosedWindowMs;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + phase_id * 64 + c);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      auto conn = connect_with_retry(endpoint);
      if (conn == nullptr) {
        samples[c].push_back({end_ms, 0.0, "could not connect"});
        return;
      }
      for (std::size_t i = 0; ms_between(start, Clock::now()) < end_ms; ++i) {
        Request r;
        r.hot = coin(rng) < kHotShare;
        r.spec = rng() % (r.hot ? mix.hot.size() : mix.miss.size());
        r.id = "s" + std::to_string(seed) + "-" + phase + "-c" +
               std::to_string(c) + "-" + std::to_string(i);
        const std::string frame = payload(mix, r);
        const Clock::time_point sent = Clock::now();
        const std::optional<std::string> response = conn->call(frame);
        const Clock::time_point received = Clock::now();
        if (!response.has_value()) {
          samples[c].push_back({end_ms, 0.0, "transport error"});
          return;  // the stream is out of step from here on
        }
        samples[c].push_back({ms_between(start, received),
                              ms_between(sent, received),
                              check_response(mix, r, *response)});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ClosedResult out;
  out.windows = windows;
  std::vector<std::vector<double>> by_window(windows);
  for (const std::vector<Sample>& per_connection : samples) {
    for (const Sample& s : per_connection) {
      ++outcome.attempted;
      if (!s.error.empty()) {
        outcome.fail(phase + ": " + s.error);
      }
      out.latencies_ms.push_back(s.latency_ms);
      // An answer that arrived after the last window still counts for
      // correctness, not for the windows.
      if (const auto w = static_cast<std::size_t>(s.done_ms / kClosedWindowMs);
          w < windows) {
        by_window[w].push_back(s.latency_ms);
      }
    }
  }
  std::vector<double> p50, throughput;
  for (const std::vector<double>& w : by_window) {
    p50.push_back(percentile(w, 0.5));
    throughput.push_back(1000.0 * static_cast<double>(w.size()) /
                         kClosedWindowMs);
  }
  out.p50_ms = percentile(p50, 0.5);
  out.throughput_per_s = percentile(throughput, 0.5);
  return out;
}

// -- In-process replay --------------------------------------------------------

struct Replay {
  std::vector<double> per_request_ms;
  std::uint64_t hits = 0;
  std::uint64_t owners = 0;
  double hit_layer_share = 0.0;
  /// Summed over the misses (owners).
  double places = 0, transitions = 0, states = 0, fired = 0,
         pruned_visited = 0, pruned_doomed = 0, report_bytes = 0;
  double peak_visited_bytes = 0;  ///< largest of any miss
};

/// Serially replays `stream` through the public serve functions, the same
/// steps the server takes per request, with a span around each.
Replay replay(const Mix& mix, const std::vector<Request>& warmup,
              const std::vector<Request>& stream, Tracer& tracer,
              Outcome& outcome) {
  constexpr std::uint8_t kHitTag = 1;
  Replay out;
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    outcome.fail("socketpair failed");
    return out;
  }
  serve::ScheduleCache cache(kCacheEntries);
  Tracer off(false);
  // One thread writes and then reads each frame, so a frame must fit in
  // the socket buffer or the write blocks; 64 KiB is far inside it.
  constexpr std::size_t kMaxReplayFrame = 64 * 1024;
  auto handle = [&](const Request& r, Tracer& t) {
    const std::string request_frame = payload(mix, r);
    if (request_frame.size() > kMaxReplayFrame) {
      return std::string("replay: request frame over 64 KiB");
    }
    const Clock::time_point t0 = Clock::now();
    const int root = t.open(kItem, -1);
    std::optional<std::string> frame;
    {
      Scope s(t, kFrame, root);
      if (serve::write_frame(sv[0], request_frame).ok()) {
        auto read = serve::read_frame(sv[1]);
        if (read.ok() && read.value().has_value()) {
          frame = std::move(*read.value());
        }
      }
    }
    if (!frame.has_value()) {
      t.close(root);
      return std::string("replay: framing failed");
    }
    Result<serve::JsonValue> document = [&] {
      Scope s(t, kJsonParse, root);
      return serve::parse_json(*frame);
    }();
    if (!document.ok()) {
      t.close(root);
      return "replay: " + document.error().to_string();
    }
    Result<serve::ServeRequest> request = [&] {
      Scope s(t, kParseRequest, root);
      return serve::parse_request(document.value());
    }();
    if (!request.ok()) {
      t.close(root);
      return "replay: " + request.error().to_string();
    }
    Result<serve::PreparedRequest> prepared = [&] {
      Scope s(t, kPrepare, root);
      return serve::prepare_request(request.value());
    }();
    if (!prepared.ok()) {
      t.close(root);
      return "replay: " + prepared.error().to_string();
    }
    const serve::Digest digest = prepared.value().digest;
    serve::ScheduleCache::Ticket ticket = [&] {
      Scope s(t, kCacheAcquire, root);
      return cache.acquire(digest, Clock::now() + std::chrono::seconds(30));
    }();
    core::ServeResponseInfo info;
    info.id = request.value().id;
    std::string report;
    if (ticket.role == serve::ScheduleCache::Role::kHit) {
      ++out.hits;
      t.tag_root(root, kHitTag);
      info.code = ticket.exit_code;
      info.verdict = ticket.verdict;
      info.cache = "hit";
      report = std::move(ticket.report_json);
    } else {
      ++out.owners;
      core::Project project(std::move(prepared.value().specification),
                            prepared.value().build,
                            prepared.value().scheduler);
      {
        Scope s(t, kBuildTpn, root);
        (void)project.build();  // a failure resurfaces from schedule()
      }
      Status status = [&] {
        Scope s(t, kSearch, root);
        return project.schedule();
      }();
      info.code = status.ok() ? core::kExitOk
                              : core::exit_code_for(status.error());
      const sched::SearchStats& stats = project.outcome().stats;
      info.verdict = sched::to_string(project.outcome().status);
      info.cache = "miss";
      out.places += static_cast<double>(project.model().net.place_count());
      out.transitions +=
          static_cast<double>(project.model().net.transition_count());
      out.states += static_cast<double>(stats.states_visited);
      out.fired += static_cast<double>(stats.transitions_fired);
      out.pruned_visited += static_cast<double>(stats.pruned_visited);
      out.pruned_doomed += static_cast<double>(stats.pruned_doomed);
      out.peak_visited_bytes = std::max(
          out.peak_visited_bytes, static_cast<double>(stats.peak_visited_bytes));
      {
        Scope s(t, kRunReport, root);
        core::RunReportExtras extras;
        extras.deterministic = true;
        report = core::run_report_json(project, nullptr, &extras);
      }
      out.report_bytes += static_cast<double>(report.size());
      cache.publish(digest, report, info.code, info.verdict);
    }
    const std::string response = core::serve_response_json(info, &report);
    if (response.size() > kMaxReplayFrame) {
      t.close(root);
      return std::string("replay: response frame over 64 KiB");
    }
    std::optional<std::string> echoed;
    {
      Scope s(t, kFrame, root);
      if (serve::write_frame(sv[1], response).ok()) {
        auto read = serve::read_frame(sv[0]);
        if (read.ok() && read.value().has_value()) {
          echoed = std::move(*read.value());
        }
      }
    }
    t.close(root);
    out.per_request_ms.push_back(ms_between(t0, Clock::now()));
    if (!echoed.has_value()) {
      return std::string("replay: framing failed");
    }
    return check_response(mix, r, *echoed);
  };
  for (const Request& r : warmup) {
    (void)handle(r, off);
  }
  out = Replay{};
  for (const Request& r : stream) {
    ++outcome.attempted;
    if (const std::string why = handle(r, tracer); !why.empty()) {
      outcome.fail(why);
    }
  }
  ::close(sv[0]);
  ::close(sv[1]);
  if (tracer.enabled()) {
    double serve_ms = 0.0;
    for (const Layer l :
         {kFrame, kJsonParse, kParseRequest, kPrepare, kCacheAcquire}) {
      serve_ms += tracer.tagged_ms(kHitTag, l);
    }
    out.hit_layer_share = serve_ms / tracer.tagged_root_ms(kHitTag);
  }
  return out;
}

/// Sends one hot request per hot spec and keeps each report as the
/// reference later hits must reproduce byte for byte.
bool warm(Connection& conn, Mix& mix, std::vector<Request>& warmup,
          Outcome& outcome) {
  mix.hot_reports.assign(mix.hot.size(), "");
  mix.hot_payloads.clear();
  for (std::size_t i = 0; i < mix.hot.size(); ++i) {
    mix.hot_payloads.push_back(request_json(
        "hot-" + std::to_string(i), "schedule", &mix.hot[i].document));
  }
  warmup.clear();
  for (std::size_t i = 0; i < mix.hot.size(); ++i) {
    Request r;
    r.spec = i;
    ++outcome.attempted;
    auto response = conn.call(payload(mix, r));
    if (!response.has_value()) {
      outcome.fail("warm-up: transport error");
      return false;
    }
    mix.hot_reports[i] = std::string(report_of(*response));
    if (const std::string why = check_response(mix, r, *response);
        !why.empty()) {
      outcome.fail("warm-up " + mix.hot[i].name + ": " + why);
    }
    warmup.push_back(std::move(r));
  }
  return true;
}

std::map<std::string, std::uint64_t> server_stats(Connection& conn) {
  std::map<std::string, std::uint64_t> out;
  auto response = conn.call(request_json("stats", "stats", nullptr));
  if (!response.has_value()) {
    return out;
  }
  const Result<serve::JsonValue> parsed = serve::parse_json(*response);
  if (!parsed.ok()) {
    return out;
  }
  auto read = [&](std::initializer_list<std::string_view> path) {
    const serve::JsonValue* v = member(parsed.value(), path);
    return v != nullptr && v->is_uint ? v->uint_value : 0;
  };
  for (const char* key : {"sheds", "degrades", "peak_queue_depth"}) {
    out[key] = read({"stats", key});
  }
  for (const char* key : {"coalesced", "evictions", "hits", "misses"}) {
    out[key] = read({"stats", "cache", key});
  }
  return out;
}

}  // namespace

int run_serve_mix(const RunConfig& config) {
  Outcome outcome;
  Mix mix;
  Pins pins;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> control;
  std::vector<Request> warmup;
  std::vector<double> setup_s;
  const std::string endpoint = "unix:" + config.scratch + "/perfbench-" +
                               std::to_string(::getpid()) + ".sock";
  // Set-up: read pools and pins, start a server, wait until it answers,
  // warm its cache with the hot pool. Repeated so setup_s is a median;
  // the last server stays up for the measurement.
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    control.reset();
    server.reset();
    std::string error;
    auto hot = load_pool(config.data_dir + "/inputs",
                         "serve-hot" + config.pool_suffix, error);
    auto miss = hot ? load_pool(config.data_dir + "/inputs",
                                "serve-miss" + config.pool_suffix, error)
                    : std::nullopt;
    auto loaded_pins =
        miss ? load_pins(config.data_dir + "/pins.tsv", error) : std::nullopt;
    if (!loaded_pins) {
      std::cerr << "perfbench: " << error << "\n";
      return 2;
    }
    pins = std::move(*loaded_pins);
    mix = Mix{std::move(*hot), std::move(*miss), {}, {}, {}, {}};
    for (const auto& [pool, inputs, out] :
         {std::tuple{"serve-hot", &mix.hot, &mix.hot_pins},
          std::tuple{"serve-miss", &mix.miss, &mix.miss_pins}}) {
      for (const Input& in : *inputs) {
        auto it = pins.find(pin_key(pool + config.pool_suffix, in.name));
        if (it == pins.end()) {
          std::cerr << "perfbench: no pin for " << in.name << "\n";
          return 2;
        }
        out->push_back(&it->second);
      }
    }
    server = std::make_unique<ServerProcess>(config.ezrt, endpoint);
    if (server->spawned()) {
      control = connect_with_retry(endpoint);
    }
    if (control == nullptr ||
        !control->call(request_json("ping", "ping", nullptr)).has_value()) {
      std::cerr << "perfbench: could not start " << config.ezrt
                << " serve on " << endpoint << "\n";
      return 2;
    }
    if (!warm(*control, mix, warmup, outcome)) {
      return print_result(outcome, {}, "{}");
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const std::size_t connections = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  const ClosedResult serial =
      run_closed(endpoint, mix, 1, config.seconds * kSerialShare, "serial", 1,
                 config.seed, outcome);
  const ClosedResult saturated =
      run_closed(endpoint, mix, connections, config.seconds * kSaturatedShare,
                 "saturated", 2, config.seed, outcome);

  std::mt19937_64 rng(config.seed);
  const std::size_t rungs = std::size(kLadder);
  const double ladder_seconds =
      config.seconds * (1.0 - kSerialShare - kSaturatedShare);
  std::vector<RungResult> results;
  std::vector<Request> nominal_stream;
  double max_rate = 0.0;
  for (std::size_t i = 0; i < rungs; ++i) {
    // The nominal rung takes half the ladder, so its tail rests on the most
    // samples; the other rungs share the rest.
    const double rung_seconds =
        i == kNominalRung
            ? ladder_seconds / 2
            : ladder_seconds / 2 / static_cast<double>(rungs - 1);
    std::vector<Request> stream =
        make_stream(mix, kLadder[i], rung_seconds, i, config.seed, rng);
    results.push_back(run_rung(endpoint, mix, stream, kLadder[i],
                               rung_seconds, connections, outcome));
    if (i == kNominalRung) {
      nominal_stream = std::move(stream);
    }
    if (!results.back().passed) {
      break;  // a backlog only grows at higher rates
    }
    max_rate = kLadder[i];
  }
  const std::map<std::string, std::uint64_t> stats = server_stats(*control);
  const double server_rss = server->peak_rss_mb();
  control.reset();
  server->stop();

  double generated = 0.0;
  for (const std::string& report : mix.hot_reports) {
    generated += static_cast<double>(report.size());
  }
  obs::JsonWriter w;
  w.begin_object();
  w.member("schema", "perfbench-detail");
  w.member("workload", config.workload);
  w.member("pool", "serve-hot" + config.pool_suffix + " + serve-miss" +
                       config.pool_suffix);
  w.member("seed", config.seed);
  w.member("setup_s_median", percentile(setup_s, 0.5));
  w.member("setup_repeats", static_cast<std::uint64_t>(setup_s.size()));
  w.member("server_workers", std::uint64_t{kServerWorkers});
  for (const auto& [name, phase, clients] :
       {std::tuple{"serial", &serial, std::size_t{1}},
        std::tuple{"saturated", &saturated, connections}}) {
    const Tail tail = tail_latency(phase->latencies_ms);
    w.key(name).begin_object();
    w.member("loop", "closed, " + std::to_string(clients) + " connections");
    w.member("samples",
             static_cast<std::uint64_t>(phase->latencies_ms.size()));
    w.member("p50_ms", percentile(phase->latencies_ms, 0.5));
    w.member("tail_percentile", tail.label);
    w.member("tail_ms", tail.value_ms);
    w.member("windows", static_cast<std::uint64_t>(phase->windows));
    w.member("window_p50_median_ms", phase->p50_ms);
    w.member("window_throughput_median_per_s", phase->throughput_per_s);
    w.end_object();
  }
  w.key("ladder").begin_object();
  w.member("loop", "open, " + std::to_string(connections) +
                       " connections, Poisson arrivals");
  w.member("latency_limit_p99_ms", kLimitMs);
  w.member("nominal_rate_per_s", kLadder[kNominalRung]);
  w.member("max_rate_per_s", max_rate);
  w.key("rungs").begin_array();
  for (const RungResult& r : results) {
    const Tail tail = tail_latency(r.latencies_ms);
    w.begin_object();
    w.member("rate_per_s", r.rate);
    w.member("samples", static_cast<std::uint64_t>(r.latencies_ms.size()));
    w.member("p50_ms", percentile(r.latencies_ms, 0.5));
    w.member("p99_ms", percentile(r.latencies_ms, 0.99));
    w.member("tail_percentile", tail.label);
    w.member("windows", static_cast<std::uint64_t>(r.windowed.windows));
    w.member("window_p50_median_ms", r.windowed.p50_ms);
    w.member("window_tail_percentile", r.windowed.tail_label);
    w.member("window_tail_median_ms", r.windowed.tail_ms);
    w.member("lag_p99_ms", percentile(r.lag_ms, 0.99));
    w.member("final_lag_ms", r.final_lag_ms);
    w.member("achieved_per_s",
             1000.0 * static_cast<double>(r.latencies_ms.size()) /
                 r.completion_ms);
    w.member("hits", r.hits);
    w.member("passed", r.passed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("server_stats").begin_object();
  for (const auto& [key, value] : stats) {
    w.member(key, value);
  }
  w.end_object();
  const double fail_ratio = static_cast<double>(outcome.failed) /
                            static_cast<double>(std::max<std::uint64_t>(
                                outcome.attempted, 1));
  w.member("fail_ratio", fail_ratio);

  const RungResult& nominal = results[kNominalRung];
  if (!config.trace) {
    w.end_object();
    const std::vector<Metric> metrics = {
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"latency_p50_ms", serial.p50_ms, "ms"},
        {"throughput_per_s", saturated.throughput_per_s, "1/s"},
        {"ok_ratio", 1.0 - fail_ratio, "ratio"},
        {"peak_rss_mb", server_rss, "MiB"},
        {"generated_bytes", generated, "bytes"},
    };
    return print_result(outcome, metrics, w.take());
  }

  // Traced run: replay the nominal stream untraced (the overhead baseline)
  // and then traced.
  Tracer off(false);
  const Replay base = replay(mix, warmup, nominal_stream, off, outcome);
  Tracer tracer(true);
  const Replay traced = replay(mix, warmup, nominal_stream, tracer, outcome);
  const std::vector<Tracer::LayerSummary> layers = tracer.summarize();
  const double overhead =
      mean(traced.per_request_ms) / mean(base.per_request_ms) - 1.0;
  const double queue_wait =
      mean(nominal.latencies_ms) - mean(base.per_request_ms);
  w.member("replay_requests",
           static_cast<std::uint64_t>(traced.per_request_ms.size()));
  w.member("trace_overhead_ratio", overhead);
  w.member("queue_wait_ms_derived", queue_wait);
  w.key("layers").begin_object();
  double wall = 0.0;
  for (const double ms : traced.per_request_ms) {
    wall += ms;
  }
  for (int l = 0; l < kLayerCount; ++l) {
    w.key(layer_metric(static_cast<Layer>(l))).begin_object();
    w.member("median_self_ms", layers[l].median_self_ms);
    w.member("calls", layers[l].calls);
    w.member("share_of_wall", layers[l].total_self_ms / wall);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  std::map<std::string, double> v;
  for (int l = kReadEzspec; l < kLayerCount; ++l) {
    v[layer_metric(static_cast<Layer>(l))] = layers[l].median_self_ms;
  }
  const double misses = static_cast<double>(std::max<std::uint64_t>(traced.owners, 1));
  v["builder.places"] = traced.places / misses;
  v["builder.transitions"] = traced.transitions / misses;
  v["sched.search_share"] = layers[kSearch].total_self_ms / wall;
  v["sched.states_visited"] = traced.states / misses;
  v["sched.transitions_fired"] = traced.fired / misses;
  v["sched.admit_ratio"] = traced.fired > 0 ? traced.states / traced.fired : 0;
  v["sched.pruned_visited"] = traced.pruned_visited / misses;
  v["sched.pruned_doomed"] = traced.pruned_doomed / misses;
  v["sched.peak_visited_bytes"] = traced.peak_visited_bytes;
  v["core.report_bytes"] = traced.report_bytes / misses;
  v["serve.cache_hit_ratio"] =
      static_cast<double>(traced.hits) /
      static_cast<double>(std::max<std::uint64_t>(traced.hits + traced.owners, 1));
  v["serve.hit_layer_share"] = traced.hit_layer_share;
  for (const char* key :
       {"coalesced", "evictions", "sheds", "degrades", "peak_queue_depth"}) {
    v[std::string("serve.") + key] =
        static_cast<double>(stats.count(key) ? stats.at(key) : 0);
  }
  v["serve.queue_wait_ms"] = queue_wait;
  v["loadgen.lag_p99_ms"] = percentile(nominal.lag_ms, 0.99);
  v["trace.overhead_ratio"] = overhead;
  return print_result(outcome, per_layer_metrics(v), w.take());
}

}  // namespace perfbench
