// `ezrt serve` robustness contract (docs/serve.md): JSON/framing strictness,
// content-addressed caching with single-flight deduplication, deadline-aware
// admission control and shedding, graceful degradation under queue pressure,
// and drain semantics. Socket tests run the real Server on a unix socket in
// a temp dir; the cache and parser layers are exercised directly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/project.hpp"
#include "core/response.hpp"
#include "obs/json.hpp"
#include "pnml/ezspec_io.hpp"
#include "serve/cache.hpp"
#include "serve/json_in.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "workload/generator.hpp"

namespace ezrt::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- json_in

TEST(JsonIn, ParsesScalarsObjectsAndArrays) {
  auto v = parse_json(R"({"a": [1, 2.5, "x\n", true, null], "b": {}})");
  ASSERT_TRUE(v.ok()) << v.error().to_string();
  const JsonValue* a = v.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_TRUE(a->array[0].is_uint);
  EXPECT_EQ(a->array[0].uint_value, 1u);
  EXPECT_FALSE(a->array[1].is_uint);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(v.value().find("b")->is_object());
}

TEST(JsonIn, LargeIntegersKeepExactUint64) {
  auto v = parse_json("18446744073709551615");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_uint);
  EXPECT_EQ(v.value().uint_value, 18446744073709551615ull);
}

TEST(JsonIn, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.", "1e",
        "\"unterminated", "\"bad \\q escape\"", "{} trailing", "nan",
        "'single'"}) {
    EXPECT_FALSE(parse_json(bad).ok()) << bad;
  }
}

TEST(JsonIn, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) {
    deep += "[";
  }
  const auto result = parse_json(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("nesting"), std::string::npos);
}

TEST(JsonIn, DecodesEscapesAndSurrogatePairs) {
  auto v = parse_json(R"("Aé€😀")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().string, "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

// ----------------------------------------------------------------- digest

TEST(Digest, CanonicalizationCollapsesFormattingOnly) {
  ServeRequest request;
  request.spec_text =
      pnml::write_ezspec(workload::mine_pump_specification()).value();
  auto a = prepare_request(request);
  ASSERT_TRUE(a.ok());
  // Same document with cosmetic whitespace changes parses to the same
  // model, so the canonical digest must match.
  ServeRequest reformatted = request;
  reformatted.spec_text.insert(reformatted.spec_text.find('\n'), "   ");
  auto b = prepare_request(reformatted);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().digest.hex(), b.value().digest.hex());
  // A different model must not.
  ServeRequest other = request;
  other.spec_text =
      pnml::write_ezspec(workload::uav_autopilot_specification()).value();
  auto c = prepare_request(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().digest.hex(), c.value().digest.hex());
}

TEST(Digest, EveryOptionKnobMovesTheFingerprint) {
  const ServeRequest base;
  const auto baseline = option_fingerprint(base);
  std::vector<ServeRequest> variants(7, base);
  variants[0].complete = true;
  variants[1].optimize = sched::Objective::kMinimizeMakespan;
  variants[2].engine = sched::SearchEngine::kBestFirst;
  variants[3].state_classes = sched::StateClassMode::kOff;
  variants[4].max_states = base.max_states + 1;
  variants[5].threads = 2;
  variants[6].has_sync_budget = true;
  for (const ServeRequest& variant : variants) {
    EXPECT_NE(option_fingerprint(variant), baseline);
  }
}

// ------------------------------------------------------------------ cache

TEST(Cache, HitAfterPublishAndLruEviction) {
  ScheduleCache cache(2);
  const Digest d1{1, 1};
  const Digest d2{2, 2};
  const Digest d3{3, 3};
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (const Digest& d : {d1, d2, d3}) {
    auto ticket = cache.acquire(d, deadline);
    ASSERT_EQ(ticket.role, ScheduleCache::Role::kOwner);
    cache.publish(d, "report-" + d.hex().substr(31), 0, "feasible");
  }
  // d1 is the LRU victim of publishing d3 into a capacity-2 cache.
  EXPECT_EQ(cache.acquire(d1, deadline).role, ScheduleCache::Role::kOwner);
  cache.abandon(d1);
  EXPECT_EQ(cache.acquire(d2, deadline).role, ScheduleCache::Role::kHit);
  EXPECT_EQ(cache.acquire(d3, deadline).role, ScheduleCache::Role::kHit);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Cache, SingleFlightExactlyOneOwnerPerDigest) {
  ScheduleCache cache(8);
  const Digest digest{42, 43};
  constexpr int kThreads = 8;
  std::atomic<int> owners{0};
  std::atomic<int> shared{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto ticket =
          cache.acquire(digest, Clock::now() + std::chrono::seconds(10));
      if (ticket.role == ScheduleCache::Role::kOwner) {
        ++owners;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cache.publish(digest, "the-report", 0, "feasible");
      } else {
        ASSERT_EQ(ticket.role, ScheduleCache::Role::kShared);
        EXPECT_EQ(ticket.report_json, "the-report");
        ++shared;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(owners.load(), 1);
  EXPECT_EQ(shared.load(), kThreads - 1);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, AbandonPromotesAWaiterToOwner) {
  ScheduleCache cache(8);
  const Digest digest{7, 9};
  auto owner = cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  std::thread waiter([&] {
    auto ticket =
        cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
    // The abandoning owner hands the digest to this waiter.
    EXPECT_EQ(ticket.role, ScheduleCache::Role::kOwner);
    cache.publish(digest, "second-try", 2, "infeasible");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.abandon(digest);
  waiter.join();
  auto hit = cache.acquire(digest, Clock::now());
  EXPECT_EQ(hit.role, ScheduleCache::Role::kHit);
  EXPECT_EQ(hit.report_json, "second-try");
  EXPECT_EQ(hit.exit_code, 2);
}

TEST(Cache, WaiterTimesOutWhenOwnerIsSlow) {
  ScheduleCache cache(8);
  const Digest digest{5, 5};
  auto owner = cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  auto ticket =
      cache.acquire(digest, Clock::now() + std::chrono::milliseconds(30));
  EXPECT_EQ(ticket.role, ScheduleCache::Role::kTimeout);
  cache.abandon(digest);
}

TEST(Cache, WaiterWithUnboundedDeadlineWakesOnPublish) {
  // A saturated request deadline is time_point::max(); the parked waiter
  // must still wake when the owner publishes.
  ScheduleCache cache(8);
  const Digest digest{6, 6};
  auto owner = cache.acquire(digest, Clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(owner.role, ScheduleCache::Role::kOwner);
  std::thread waiter([&] {
    auto ticket = cache.acquire(digest, Clock::time_point::max());
    EXPECT_EQ(ticket.role, ScheduleCache::Role::kShared);
    EXPECT_EQ(ticket.report_json, "late");
  });
  // coalesced goes up under the cache lock just before the wait, so the
  // waiter is parked once it reads 1.
  while (cache.stats().coalesced == 0) {
    std::this_thread::yield();
  }
  cache.publish(digest, "late", 0, "feasible");
  waiter.join();
  EXPECT_EQ(cache.stats().coalesced, 1u);
}

TEST(Cache, AliasHitsAfterPublish) {
  ScheduleCache cache(4);
  const Digest canonical{1, 2};
  const Digest raw{10, 20};
  EXPECT_FALSE(cache.acquire_alias(raw).has_value());
  ASSERT_EQ(cache.acquire(canonical, Clock::now() + std::chrono::seconds(5))
                .role,
            ScheduleCache::Role::kOwner);
  cache.publish(canonical, "the-report", 2, "infeasible");
  cache.record_alias(raw, canonical);
  const auto ticket = cache.acquire_alias(raw);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->role, ScheduleCache::Role::kHit);
  EXPECT_EQ(ticket->report_json, "the-report");
  EXPECT_EQ(ticket->exit_code, 2);
  EXPECT_EQ(ticket->verdict, "infeasible");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.alias_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(Cache, AliasIsGoneOnceLruEvictsItsEntry) {
  ScheduleCache cache(1);
  const Digest d1{1, 1};
  const Digest d2{2, 2};
  const Digest raw{11, 11};
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  ASSERT_EQ(cache.acquire(d1, deadline).role, ScheduleCache::Role::kOwner);
  cache.publish(d1, "one", 0, "feasible");
  cache.record_alias(raw, d1);
  ASSERT_TRUE(cache.acquire_alias(raw).has_value());
  ASSERT_EQ(cache.acquire(d2, deadline).role, ScheduleCache::Role::kOwner);
  cache.publish(d2, "two", 0, "feasible");  // evicts d1 and its alias
  EXPECT_FALSE(cache.acquire_alias(raw).has_value());
  EXPECT_EQ(cache.alias_count(), 0u);
  // Re-recording against the evicted digest is refused, not dangling.
  cache.record_alias(raw, d1);
  EXPECT_FALSE(cache.acquire_alias(raw).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, AliasIndexStaysBoundedUnderManyFormattings) {
  // Two specs, each sent in many whitespace variants: every variant
  // canonicalizes to its spec's one entry, and each new raw key replaces
  // the entry's previous alias, so the index never outgrows the cache.
  constexpr std::size_t kCapacity = 2;
  constexpr std::size_t kVariants = 12;
  ScheduleCache cache(kCapacity);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (const spec::Specification& model :
       {workload::mine_pump_specification(),
        workload::uav_autopilot_specification()}) {
    ServeRequest request;
    const std::string text = pnml::write_ezspec(model).value();
    std::vector<Digest> raws;
    Digest canonical;
    for (std::size_t i = 0; i < kVariants; ++i) {
      request.spec_text = text + std::string(i, ' ');
      auto prepared = prepare_request(request);
      ASSERT_TRUE(prepared.ok());
      if (i == 0) {
        canonical = prepared.value().digest;
        ASSERT_EQ(cache.acquire(canonical, deadline).role,
                  ScheduleCache::Role::kOwner);
        cache.publish(canonical, "report", 0, "feasible");
      }
      ASSERT_EQ(prepared.value().digest, canonical);
      raws.push_back(raw_key(request));
      cache.record_alias(raws.back(), canonical);
      EXPECT_LE(cache.alias_count(), kCapacity);
    }
    for (std::size_t i = 0; i < kVariants; ++i) {
      EXPECT_EQ(cache.acquire_alias(raws[i]).has_value(), i == kVariants - 1)
          << i;
    }
  }
  EXPECT_EQ(cache.alias_count(), kCapacity);
  EXPECT_EQ(cache.stats().entries, kCapacity);
}

TEST(Cache, AbandonedDigestsTakeNoAlias) {
  const Digest canonical{3, 4};
  const Digest raw{30, 40};
  ScheduleCache cache(4);
  ASSERT_EQ(cache.acquire(canonical, Clock::now() + std::chrono::seconds(5))
                .role,
            ScheduleCache::Role::kOwner);
  cache.abandon(canonical);
  cache.record_alias(raw, canonical);
  EXPECT_FALSE(cache.acquire_alias(raw).has_value());
  EXPECT_EQ(cache.alias_count(), 0u);
  // Storage disabled: a published result is handed to waiters only, so
  // there is no entry to alias either.
  ScheduleCache unstored(0);
  ASSERT_EQ(
      unstored.acquire(canonical, Clock::now() + std::chrono::seconds(5))
          .role,
      ScheduleCache::Role::kOwner);
  unstored.publish(canonical, "report", 0, "feasible");
  unstored.record_alias(raw, canonical);
  EXPECT_FALSE(unstored.acquire_alias(raw).has_value());
  EXPECT_EQ(unstored.alias_count(), 0u);
}

// --------------------------------------------------------------- envelope

TEST(Envelope, CarriesCodesVerdictAndSplicedReport) {
  core::ServeResponseInfo info;
  info.id = "req-1";
  info.status = "ok";
  info.code = core::kExitOk;
  info.verdict = "feasible";
  info.cache = "hit";
  info.queue_ms = 3;
  const std::string report = R"({"schema":"ezrt-run-report"})";
  const std::string json = core::serve_response_json(info, &report);
  auto parsed = parse_json(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed.value().find("schema")->string, "ezrt-serve-response");
  EXPECT_EQ(parsed.value().find("id")->string, "req-1");
  EXPECT_EQ(parsed.value().find("code")->uint_value, 0u);
  EXPECT_EQ(parsed.value().find("cache")->string, "hit");
  EXPECT_EQ(parsed.value().find("report")->find("schema")->string,
            "ezrt-run-report");
}

TEST(Envelope, ExitCodeContractMatchesTheCli) {
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kFeasible), 0);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kInfeasible), 2);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kTimeLimit), 3);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kMemoryLimit), 3);
  EXPECT_EQ(core::exit_code_for(sched::SearchStatus::kCancelled), 130);
  EXPECT_EQ(
      core::exit_code_for(make_error(ErrorCode::kParseError, "x")), 4);
  EXPECT_EQ(
      core::exit_code_for(make_error(ErrorCode::kInfeasible, "x")), 2);
  EXPECT_EQ(core::exit_code_for(make_error(ErrorCode::kIoError, "x")), 1);
}

// ------------------------------------------------------- request parsing

TEST(Request, RejectsUnknownOptionsAndBadShapes) {
  auto must_fail = [](const char* json) {
    auto doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << json;
    EXPECT_FALSE(parse_request(doc.value()).ok()) << json;
  };
  must_fail(R"([1,2,3])");
  must_fail(R"({"op":"schedule"})");                      // missing spec
  must_fail(R"({"op":"frobnicate","spec":"x"})");
  must_fail(R"({"schema":"wrong","op":"ping"})");
  must_fail(R"({"version":2,"op":"ping"})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"max_staets":1}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"engine":"warp"}})");
  // The beam engine and its knobs are gone from the envelope.
  must_fail(R"({"op":"schedule","spec":"x","options":{"engine":"beam"}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"beam_width":8}})");
  must_fail(R"({"op":"schedule","spec":"x","options":{"widen":true}})");
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"max_states":-1}})");
  // Integers must fit their field: one past sched::kMaxThreads, and
  // 2^32 + 1 for the 32-bit sync budget (which must not wrap to K = 1).
  must_fail(R"({"op":"schedule","spec":"x","options":{"threads":309}})");
  must_fail(
      R"({"op":"schedule","spec":"x","options":{"sync_budget":4294967297}})");
}

// ------------------------------------------------------------ socket e2e

class ServeTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ezrt_serve_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    mine_pump_ =
        pnml::write_ezspec(workload::mine_pump_specification()).value();
    uav_ = pnml::write_ezspec(workload::uav_autopilot_specification())
               .value();
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string endpoint(const std::string& name) const {
    return "unix:" + (dir_ / (name + ".sock")).string();
  }

  [[nodiscard]] static std::string schedule_request(
      const std::string& spec, const std::string& id,
      std::uint64_t budget_ms = 0, bool complete = false) {
    obs::JsonWriter w;
    w.begin_object();
    w.member("schema", "ezrt-serve-request");
    w.member("version", std::uint64_t{1});
    w.member("id", id);
    w.member("op", "schedule");
    if (budget_ms != 0) {
      w.member("budget_ms", budget_ms);
    }
    if (complete) {
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.end_object();
    }
    w.member("spec", spec);
    w.end_object();
    return w.take();
  }

  /// Sends one frame on a fresh connection and returns the response
  /// bytes.
  [[nodiscard]] static std::string roundtrip_bytes(
      const std::string& endpoint, const std::string& payload) {
    auto fd = connect_endpoint(endpoint);
    EXPECT_TRUE(fd.ok()) << fd.ok();
    EXPECT_TRUE(write_frame(fd.value(), payload).ok());
    auto frame = read_frame(fd.value());
    ::close(fd.value());
    EXPECT_TRUE(frame.ok());
    EXPECT_TRUE(frame.value().has_value());
    return *frame.value();
  }

  /// Sends one frame on a fresh connection and returns the parsed
  /// response.
  [[nodiscard]] static JsonValue roundtrip(const std::string& endpoint,
                                           const std::string& payload) {
    auto parsed = parse_json(roundtrip_bytes(endpoint, payload));
    EXPECT_TRUE(parsed.ok());
    return std::move(parsed).value();
  }

  /// The spliced run report of a response, byte for byte (the envelope
  /// writes it last).
  [[nodiscard]] static std::string report_bytes(const std::string& response) {
    const std::size_t at = response.find("\"report\":");
    return at == std::string::npos
               ? std::string()
               : response.substr(at, response.size() - 1 - at);
  }

  fs::path dir_;
  std::string mine_pump_;
  std::string uav_;
};

TEST_F(ServeTest, SchedulesCachesAndServesByteIdenticalReports) {
  ServerOptions options;
  options.endpoint = endpoint("cache");
  options.workers = 2;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  const JsonValue first =
      roundtrip(server.endpoint(), schedule_request(mine_pump_, "a"));
  EXPECT_EQ(first.find("status")->string, "ok");
  EXPECT_EQ(first.find("verdict")->string, "feasible");
  EXPECT_EQ(first.find("cache")->string, "miss");
  EXPECT_EQ(first.find("code")->uint_value, 0u);
  ASSERT_NE(first.find("report"), nullptr);
  EXPECT_EQ(first.find("report")->find("schema")->string, "ezrt-run-report");

  const JsonValue second =
      roundtrip(server.endpoint(), schedule_request(mine_pump_, "b"));
  EXPECT_EQ(second.find("cache")->string, "hit");
  // The cached report is byte-identical to the fresh one (deterministic
  // emission) — compare a stable, content-bearing field.
  EXPECT_EQ(first.find("report")->find("verdict")->string,
            second.find("report")->find("verdict")->string);

  server.shutdown();
  server.wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST_F(ServeTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  ServerOptions options;
  options.endpoint = endpoint("flight");
  options.workers = 2;
  options.queue_depth = 16;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 6;
  std::atomic<int> misses{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const JsonValue response = roundtrip(
          server.endpoint(),
          schedule_request(uav_, "c" + std::to_string(i), 30'000, true));
      EXPECT_EQ(response.find("status")->string, "ok") << i;
      ++served;
      const std::string cache = response.find("cache")->string;
      if (cache == "miss") {
        ++misses;
      } else {
        EXPECT_TRUE(cache == "hit" || cache == "coalesced") << cache;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(served.load(), kClients);
  // The acceptance criterion: concurrent identical requests trigger
  // exactly one search.
  EXPECT_EQ(misses.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_EQ(server.stats().cache.misses, 1u);
}

TEST_F(ServeTest, PingStatsAndInvalidPayloads) {
  ServerOptions options;
  options.endpoint = endpoint("misc");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"ping","id":"p"})")
                .find("status")
                ->string,
            "ok");

  const JsonValue stats =
      roundtrip(server.endpoint(), R"({"op":"stats"})");
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_GE(stats.find("stats")->find("requests")->uint_value, 1u);

  const JsonValue garbage = roundtrip(server.endpoint(), "this is not json");
  EXPECT_EQ(garbage.find("status")->string, "invalid");
  EXPECT_EQ(garbage.find("code")->uint_value, 4u);

  const JsonValue bad_spec = roundtrip(
      server.endpoint(), schedule_request("<system name='x'/>", "s"));
  EXPECT_EQ(bad_spec.find("status")->string, "invalid");
  EXPECT_EQ(bad_spec.find("code")->uint_value, 4u);

  server.shutdown();
  server.wait();
}

TEST_F(ServeTest, ThreadCountAboveTheCapIsInvalidAndTheServerSurvives) {
  // The visited set cannot host more than sched::kMaxThreads workers; the
  // request must be refused before any search starts, not abort the
  // server.
  ServerOptions options;
  options.endpoint = endpoint("threads");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  obs::JsonWriter w;
  w.begin_object();
  w.member("op", "schedule");
  w.key("options");
  w.begin_object();
  w.member("threads", std::uint64_t{sched::kMaxThreads} + 1);
  w.end_object();
  w.member("spec", mine_pump_);
  w.end_object();
  const JsonValue rejected = roundtrip(server.endpoint(), w.take());
  EXPECT_EQ(rejected.find("status")->string, "invalid");
  EXPECT_EQ(rejected.find("code")->uint_value, 4u);
  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"stats"})")
                .find("status")
                ->string,
            "ok");

  server.shutdown();
  server.wait();
  EXPECT_EQ(server.stats().invalid, 1u);
}

TEST_F(ServeTest, OversizedFrameIsRejectedWithExitCode4Equivalent) {
  ServerOptions options;
  options.endpoint = endpoint("oversize");
  options.max_request_bytes = 4096;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  auto fd = connect_endpoint(server.endpoint());
  ASSERT_TRUE(fd.ok());
  // Declare a payload beyond the server's cap; the server must answer
  // with a structured `invalid` response without buffering the body.
  const std::uint32_t declared = 1u << 20;
  const char header[4] = {
      static_cast<char>((declared >> 24) & 0xFF),
      static_cast<char>((declared >> 16) & 0xFF),
      static_cast<char>((declared >> 8) & 0xFF),
      static_cast<char>(declared & 0xFF),
  };
  ASSERT_EQ(::send(fd.value(), header, sizeof header, MSG_NOSIGNAL), 4);
  const std::string junk(declared, 'x');
  (void)::send(fd.value(), junk.data(), junk.size(), MSG_NOSIGNAL);
  auto frame = read_frame(fd.value());
  ::close(fd.value());
  ASSERT_TRUE(frame.ok() && frame.value().has_value());
  auto response = parse_json(*frame.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().find("status")->string, "invalid");
  EXPECT_EQ(response.value().find("code")->uint_value, 4u);
  EXPECT_NE(response.value().find("error")->string.find("exceeds"),
            std::string::npos);

  // A truncated frame (connection closed mid-payload) must not wedge the
  // server: the next connection is served normally.
  auto truncated = connect_endpoint(server.endpoint());
  ASSERT_TRUE(truncated.ok());
  const char half[4] = {0, 0, 1, 0};  // declare 256 bytes, send none
  ASSERT_EQ(::send(truncated.value(), half, sizeof half, MSG_NOSIGNAL), 4);
  ::close(truncated.value());
  EXPECT_EQ(roundtrip(server.endpoint(), R"({"op":"ping"})")
                .find("status")
                ->string,
            "ok");

  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().invalid, 1u);
}

TEST_F(ServeTest, OverloadBurstShedsWithStructuredResponses) {
  ServerOptions options;
  options.endpoint = endpoint("overload");
  options.workers = 1;
  options.queue_depth = 1;
  options.cache_entries = 0;  // no cross-request reuse: every request works
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // Distinct digests (different budgets do not change the digest, so vary
  // the spec via sync_budget) keep single-flight out of the picture.
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "burst" + std::to_string(i));
      w.member("budget_ms", std::uint64_t{10'000});
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);  // digest diversity
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      const JsonValue response = roundtrip(server.endpoint(), w.take());
      const std::string status = response.find("status")->string;
      if (status == "ok") {
        ++ok;
      } else if (status == "overloaded") {
        // Structured shed: exit-code-3 equivalent plus a backoff hint.
        EXPECT_EQ(response.find("code")->uint_value, 3u);
        EXPECT_GT(response.find("retry_after_ms")->uint_value, 0u);
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  // Every request got a structured answer (no hangs, no crashes), and the
  // burst exceeded queue capacity so at least one was shed.
  EXPECT_EQ(ok.load() + overloaded.load() + other.load(), kClients);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_GE(ok.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().sheds, 1u);
}

TEST_F(ServeTest, ExpiredBudgetIsShedBeforeAnyWork) {
  ServerOptions options;
  options.endpoint = endpoint("expired");
  options.workers = 1;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());
  // Prime the EWMA so admission has a service-time estimate.
  (void)roundtrip(server.endpoint(), schedule_request(mine_pump_, "prime"));
  // A 1 ms budget cannot cover even a cached... distinct spec: the
  // admission estimate (EWMA > 0) exceeds the remaining budget, so the
  // request is shed as `overloaded` without a worker touching it.
  const JsonValue response = roundtrip(
      server.endpoint(), schedule_request(uav_, "tight", /*budget_ms=*/1));
  EXPECT_EQ(response.find("status")->string, "overloaded");
  server.shutdown();
  server.wait();
}

TEST_F(ServeTest, QueuePressureDegradesExhaustiveRequestsHonestly) {
  ServerOptions options;
  options.endpoint = endpoint("degrade");
  options.workers = 1;
  options.queue_depth = 8;
  options.degrade_queue = 1;  // any queued work triggers degradation
  options.degrade_max_states = 10'000;
  options.cache_entries = 0;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 4;
  std::atomic<int> degraded{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "d" + std::to_string(i));
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      const JsonValue response = roundtrip(server.endpoint(), w.take());
      if (response.find("status")->string == "ok") {
        ++answered;
        if (response.find("degraded")->boolean) {
          ++degraded;
          // The downgrade is reported honestly in the echoed report
          // options: the guided engine replaced the exhaustive DFS.
          const JsonValue* report = response.find("report");
          ASSERT_NE(report, nullptr);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_GE(answered.load(), 1);
  // With one worker and four near-simultaneous exhaustive requests, at
  // least one was dequeued with a non-empty queue behind it.
  EXPECT_GE(degraded.load(), 1);
  server.shutdown();
  server.wait();
  EXPECT_GE(server.stats().degrades, 1u);
}

TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  ServerOptions options;
  options.endpoint = endpoint("drain");
  options.workers = 1;
  options.queue_depth = 8;
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // Launch requests, then begin the drain while they are in flight. Every
  // client must still receive a structured response — completed or
  // shutting-down, never a dropped connection mid-frame.
  constexpr int kClients = 4;
  std::atomic<int> responded{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto fd = connect_endpoint(server.endpoint());
      if (!fd.ok()) {
        return;  // accept raced the drain: connection refused is fine
      }
      obs::JsonWriter w;
      w.begin_object();
      w.member("op", "schedule");
      w.member("id", "drain" + std::to_string(i));
      w.key("options");
      w.begin_object();
      w.member("complete", true);
      w.member("sync_budget", std::uint64_t{8} + i);
      w.end_object();
      w.member("spec", uav_);
      w.end_object();
      if (!write_frame(fd.value(), w.take()).ok()) {
        ::close(fd.value());
        return;
      }
      auto frame = read_frame(fd.value());
      ::close(fd.value());
      if (frame.ok() && frame.value().has_value()) {
        auto parsed = parse_json(*frame.value());
        ASSERT_TRUE(parsed.ok());
        const std::string status = parsed.value().find("status")->string;
        EXPECT_TRUE(status == "ok" || status == "shutting-down" ||
                    status == "overloaded")
            << status;
        ++responded;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.shutdown();
  for (std::thread& t : clients) {
    t.join();
  }
  server.wait();
  // At least the request a worker had picked up must have been answered.
  EXPECT_GE(responded.load(), 1);
}

TEST_F(ServeTest, ByteIdenticalResendIsAnAliasHitWithTheMissReport) {
  ServerOptions options;
  options.endpoint = endpoint("alias");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  const std::string miss =
      roundtrip_bytes(server.endpoint(), schedule_request(mine_pump_, "a"));
  ASSERT_EQ(parse_json(miss).value().find("cache")->string, "miss");
  // The owner recorded the alias before answering, so the very first
  // resend takes the fast path.
  for (const char* id : {"b", "c"}) {
    const std::string hit =
        roundtrip_bytes(server.endpoint(), schedule_request(mine_pump_, id));
    EXPECT_EQ(parse_json(hit).value().find("cache")->string, "hit");
    EXPECT_EQ(report_bytes(hit), report_bytes(miss));
  }
  EXPECT_FALSE(report_bytes(miss).empty());

  server.shutdown();
  server.wait();
  const CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.alias_hits, 2u);
}

TEST_F(ServeTest, ReformattedCopyIsASlowPathHitOnTheSameEntry) {
  ServerOptions options;
  options.endpoint = endpoint("reformat");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  std::string reformatted = mine_pump_;
  reformatted.insert(reformatted.find('\n'), "   ");
  const std::string miss =
      roundtrip_bytes(server.endpoint(), schedule_request(mine_pump_, "a"));
  const std::string slow =
      roundtrip_bytes(server.endpoint(), schedule_request(reformatted, "b"));
  EXPECT_EQ(parse_json(slow).value().find("cache")->string, "hit");
  EXPECT_EQ(report_bytes(slow), report_bytes(miss));
  const CacheStats after_slow = server.stats().cache;
  EXPECT_EQ(after_slow.hits, 1u);
  EXPECT_EQ(after_slow.alias_hits, 0u);
  EXPECT_EQ(after_slow.entries, 1u);
  // The slow-path hit recorded the new formatting as the entry's alias.
  const std::string fast =
      roundtrip_bytes(server.endpoint(), schedule_request(reformatted, "c"));
  EXPECT_EQ(report_bytes(fast), report_bytes(miss));

  server.shutdown();
  server.wait();
  const CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.alias_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServeTest, ChangedOptionWordIsNotAnAliasHit) {
  ServerOptions options;
  options.endpoint = endpoint("options");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  ASSERT_EQ(roundtrip(server.endpoint(), schedule_request(mine_pump_, "a"))
                .find("cache")
                ->string,
            "miss");
  // Same spec bytes, one option word changed each: a different result
  // key, so neither the alias nor the canonical entry may answer.
  auto with_option = [this](const char* name, auto value) {
    obs::JsonWriter w;
    w.begin_object();
    w.member("op", "schedule");
    w.member("id", name);
    w.key("options");
    w.begin_object();
    w.member(name, value);
    w.end_object();
    w.member("spec", mine_pump_);
    w.end_object();
    return w.take();
  };
  for (const std::string& payload :
       {with_option("sync_budget", std::uint64_t{8}),
        with_option("paper_blocks", true), with_option("complete", true)}) {
    const JsonValue response = roundtrip(server.endpoint(), payload);
    EXPECT_EQ(response.find("status")->string, "ok");
    EXPECT_EQ(response.find("cache")->string, "miss");
  }

  server.shutdown();
  server.wait();
  const CacheStats stats = server.stats().cache;
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.alias_hits, 0u);
}

TEST_F(ServeTest, InvalidSpecStaysInvalidOnEveryResend) {
  ServerOptions options;
  options.endpoint = endpoint("invalid");
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 3; ++i) {
    const JsonValue response = roundtrip(
        server.endpoint(), schedule_request("<system name='x'/>", "bad"));
    EXPECT_EQ(response.find("status")->string, "invalid") << i;
    EXPECT_EQ(response.find("code")->uint_value, 4u) << i;
  }

  server.shutdown();
  server.wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.alias_hits, 0u);
}

TEST_F(ServeTest, HugeBudgetsMeanNoDeadline) {
  // Budgets past the signed 64-bit nanosecond steady clock must saturate
  // to "no deadline", not wrap into the past and shed the request.
  ServerOptions options;
  options.endpoint = endpoint("budget");
  options.workers = 1;
  options.cache_entries = 0;  // every request runs the admission path
  Server server(std::move(options));
  ASSERT_TRUE(server.start().ok());

  // Prime the EWMA so admission compares a nonzero wait estimate.
  (void)roundtrip(server.endpoint(), schedule_request(mine_pump_, "prime"));
  for (const std::uint64_t budget :
       {std::uint64_t{9223372036854775}, ~std::uint64_t{0}}) {
    const JsonValue response = roundtrip(
        server.endpoint(), schedule_request(mine_pump_, "huge", budget));
    ASSERT_EQ(response.find("status")->string, "ok") << budget;
    EXPECT_EQ(response.find("verdict")->string, "feasible") << budget;
    EXPECT_EQ(response.find("cache")->string, "miss") << budget;
  }

  server.shutdown();
  server.wait();
  EXPECT_EQ(server.stats().sheds, 0u);
}

// ------------------------------------------------- guard deadline plumbing

TEST(DeadlineGuard, AbsoluteDeadlineTerminatesEveryEngine) {
  // A deadline already in the past must trip kTimeLimit at the first
  // masked guard check in all engines — this is what makes serve queue
  // time count against the search budget.
  spec::Specification spec = workload::uav_autopilot_specification();
  spec.set_sync_budget(1);
  for (const sched::SearchEngine engine :
       {sched::SearchEngine::kDfs, sched::SearchEngine::kBestFirst}) {
    sched::SchedulerOptions scheduler;
    scheduler.pruning = sched::PruningMode::kNone;
    scheduler.search_engine = engine;
    scheduler.deadline = Clock::now() - std::chrono::milliseconds(1);
    core::Project project(spec, {}, scheduler);
    const Status status = project.schedule();
    ASSERT_TRUE(project.scheduled());
    EXPECT_EQ(project.outcome().status, sched::SearchStatus::kTimeLimit)
        << sched::to_string(engine);
    EXPECT_FALSE(status.ok());
  }
}

}  // namespace
}  // namespace ezrt::serve
