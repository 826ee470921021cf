#include "serve/request.hpp"

#include <limits>
#include <string>
#include <utility>

#include "pnml/ezspec_io.hpp"

namespace ezrt::serve {
namespace {

Error option_error(std::string_view name, const std::string& what) {
  return make_error(ErrorCode::kInvalidArgument,
                    "request option '" + std::string(name) + "' " + what);
}

Result<std::uint64_t> require_uint(
    const JsonValue& v, std::string_view name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (v.kind != JsonValue::Kind::kNumber || !v.is_uint) {
    return option_error(name, "must be a non-negative integer");
  }
  if (v.uint_value > max) {
    return option_error(name, "must be at most " + std::to_string(max));
  }
  return v.uint_value;
}

Result<bool> require_bool(const JsonValue& v, std::string_view name) {
  if (v.kind != JsonValue::Kind::kBool) {
    return option_error(name, "must be a boolean");
  }
  return v.boolean;
}

/// A string option read through one of the sched option spellings.
template <typename Enum>
Result<Enum> require_spelling(const JsonValue& v, std::string_view name,
                              Result<Enum> (*parse)(std::string_view)) {
  if (!v.is_string()) {
    return option_error(name, "must be a string");
  }
  auto parsed = parse(v.string);
  if (!parsed.ok()) {
    return option_error(name, parsed.error().message());
  }
  return parsed;
}

template <typename T, typename Field>
Status assign(Result<T> parsed, Field& field) {
  if (!parsed.ok()) {
    return parsed.error();
  }
  field = static_cast<Field>(parsed.value());
  return {};
}

Status parse_option(const std::string& name, const JsonValue& value,
                    ServeRequest& out) {
  if (name == "complete") {
    return assign(require_bool(value, name), out.complete);
  }
  if (name == "optimize") {
    return assign(require_spelling(value, name, sched::parse_objective),
                  out.optimize);
  }
  if (name == "engine") {
    return assign(require_spelling(value, name, sched::parse_search_engine),
                  out.engine);
  }
  if (name == "state_classes") {
    return assign(
        require_spelling(value, name, sched::parse_state_class_mode),
        out.state_classes);
  }
  if (name == "max_states") {
    return assign(require_uint(value, name), out.max_states);
  }
  if (name == "threads") {
    return assign(require_uint(value, name, sched::kMaxThreads),
                  out.threads);
  }
  if (name == "paper_blocks") {
    return assign(require_bool(value, name), out.paper_blocks);
  }
  if (name == "sync_budget") {
    out.has_sync_budget = true;
    return assign(require_uint(value, name,
                               std::numeric_limits<std::uint32_t>::max()),
                  out.sync_budget);
  }
  // Strict: silently ignoring a typo'd limit would run unbudgeted.
  return make_error(ErrorCode::kInvalidArgument,
                    "unknown request option '" + name + "'");
}

/// The engine options a request asks for; also what its digest covers.
sched::SchedulerOptions scheduler_options(const ServeRequest& r) {
  sched::SchedulerOptions s;
  if (r.complete) {
    s.pruning = sched::PruningMode::kNone;
  }
  sched::set_objective(s, r.optimize);
  s.search_engine = r.engine;
  s.state_classes = r.state_classes;
  s.max_states = r.max_states;
  s.threads = r.threads;
  // Thread-count verdict determinism is non-negotiable for a cache keyed
  // on (spec, options): without it, which of kFeasible/kLimitReached wins
  // a bounded parallel race would be frozen into the cache.
  if (s.threads > 0) {
    s.deterministic = true;
  }
  return s;
}

}  // namespace

Result<ServeRequest> parse_request(const JsonValue& root) {
  if (!root.is_object()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request must be a JSON object");
  }
  if (const JsonValue* schema = root.find("schema");
      schema != nullptr &&
      (!schema->is_string() || schema->string != "ezrt-serve-request")) {
    return make_error(ErrorCode::kInvalidArgument,
                      "request 'schema' must be \"ezrt-serve-request\"");
  }
  if (const JsonValue* version = root.find("version");
      version != nullptr && (!version->is_uint || version->uint_value != 1)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unsupported request version (want 1)");
  }
  ServeRequest out;
  if (const JsonValue* id = root.find("id"); id != nullptr) {
    if (!id->is_string()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'id' must be a string");
    }
    out.id = id->string;
  }
  if (const JsonValue* op = root.find("op"); op != nullptr) {
    if (!op->is_string() || (op->string != "schedule" &&
                             op->string != "ping" && op->string != "stats")) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'op' expects schedule|ping|stats");
    }
    out.op = op->string;
  }
  if (const JsonValue* budget = root.find("budget_ms"); budget != nullptr) {
    auto v = require_uint(*budget, "budget_ms");
    if (!v.ok()) return v.error();
    out.budget_ms = v.value();
  }
  if (const JsonValue* options = root.find("options"); options != nullptr) {
    if (!options->is_object()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "request 'options' must be an object");
    }
    for (const auto& [name, value] : options->object) {
      if (auto status = parse_option(name, value, out); !status.ok()) {
        return status.error();
      }
    }
  }
  if (out.op == "schedule") {
    const JsonValue* spec = root.find("spec");
    if (spec == nullptr || !spec->is_string() || spec->string.empty()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "schedule request needs a non-empty 'spec' string "
                        "(inline ez-spec XML)");
    }
    out.spec_text = spec->string;
  }
  return out;
}

std::vector<std::uint64_t> option_fingerprint(const ServeRequest& r) {
  // One word per verdict-relevant knob, position-tagged by the fixed
  // order below. budget_ms and id are deliberately absent: they shape
  // admission, not the result.
  const sched::SchedulerOptions s = scheduler_options(r);
  return {
      s.pruning == sched::PruningMode::kNone ? 1u : 0u,
      static_cast<std::uint64_t>(s.objective),
      static_cast<std::uint64_t>(s.search_engine),
      static_cast<std::uint64_t>(s.state_classes),
      s.max_states,
      s.threads,
      r.paper_blocks ? 1u : 0u,
      r.has_sync_budget ? 1u : 0u,
      r.sync_budget,
  };
}

Digest raw_key(const ServeRequest& r) {
  return compute_digest(r.spec_text, option_fingerprint(r));
}

Result<PreparedRequest> prepare_request(const ServeRequest& r) {
  auto parsed = pnml::read_ezspec(r.spec_text);
  if (!parsed.ok()) {
    return parsed.error();
  }
  PreparedRequest out;
  out.specification = std::move(parsed).value();
  if (r.has_sync_budget) {
    out.specification.set_sync_budget(r.sync_budget);
  }
  if (r.paper_blocks) {
    out.build.style = builder::BlockStyle::kPaper;
  }
  out.scheduler = scheduler_options(r);
  auto canonical = pnml::write_ezspec(out.specification);
  if (!canonical.ok()) {
    return canonical.error();
  }
  out.canonical_spec = std::move(canonical).value();
  out.digest = compute_digest(out.canonical_spec, option_fingerprint(r));
  return out;
}

}  // namespace ezrt::serve
