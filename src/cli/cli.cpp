#include "cli/cli.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <thread>

#include "base/assert.hpp"
#include "base/cancel.hpp"
#include "base/strings.hpp"
#include "base/time.hpp"
#include "obs/explain.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "pnml/ezspec_io.hpp"
#include "tpn/dot.hpp"

#include "core/project.hpp"
#include "core/response.hpp"
#include "core/run_report.hpp"
#include "runtime/cyclic.hpp"
#include "runtime/dispatcher_sim.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/admission.hpp"
#include "runtime/latency.hpp"
#include "runtime/metrics.hpp"
#include "runtime/online_sched.hpp"
#include "sched/reachability.hpp"
#include "sched/trace_io.hpp"
#include "serve/server.hpp"
#include "tpn/state_class.hpp"
#include "workload/generator.hpp"

namespace ezrt::cli {

namespace {

// The exit codes are the tool-wide contract of core/response.hpp.
using core::exit_code_for;
using core::kExitCancelled;
using core::kExitFailure;
using core::kExitInvalidInput;
using core::kExitLimit;
using core::kExitOk;

/// Prints the error and maps it to its documented exit code.
[[nodiscard]] int fail(std::ostream& err, const Error& error) {
  err << "error: " << error << "\n";
  return exit_code_for(error);
}

// -- Commands and options -----------------------------------------------------

/// One bit per command; an option lists the commands that read it.
enum CommandBit : std::uint32_t {
  kInfo = 1u << 0,
  kValidate = 1u << 1,
  kSchedule = 1u << 2,
  kExplain = 1u << 3,
  kCodegen = 1u << 4,
  kExportPnml = 1u << 5,
  kExportDot = 1u << 6,
  kSimulate = 1u << 7,
  kWorkload = 1u << 8,
  kBaseline = 1u << 9,
  kReplay = 1u << 10,
  kReach = 1u << 11,
  kRobust = 1u << 12,
  kServe = 1u << 13,
};
/// Commands that run the schedule search and so read its options.
constexpr std::uint32_t kSearching =
    kSchedule | kExplain | kCodegen | kSimulate | kRobust;
/// Commands that build the time Petri net.
constexpr std::uint32_t kBuilding =
    kSearching | kExportPnml | kExportDot | kReplay | kReach;

enum class Value : std::uint8_t {
  kNone,           ///< a switch: --flag
  kText,           ///< --flag VALUE or --flag=VALUE
  kCount,          ///< a decimal integer in [min, max]
  kBytes,          ///< a byte count with an optional k|m|g suffix
  kOptionalCount,  ///< --flag or --flag=N (never a separate word)
};

struct Option {
  std::string_view name;
  Value value;
  std::uint32_t commands;  ///< CommandBit set of the commands that read it
  std::string metavar;     ///< the value's placeholder in the help text
  std::string help;        ///< '\n' continues on an indented line
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// Every option of every command. Consecutive entries with the same
/// command set share one heading in `ezrt help`.
const Option kOptions[] = {
    {"sync-budget", Value::kCount,
     kInfo | kValidate | kBuilding | kWorkload, "K",
     "shared-sync pool K (docs/multiprocessor.md);\n"
     "overrides the spec's, or sets the generated one",
     0, kU32Max},
    {"paper-blocks", Value::kNone, kBuilding, "",
     "separate release and grant stages (the paper's)"},
    {"complete", Value::kNone, kSearching, "",
     "branch over every fireable transition, not\n"
     "only the priority filter FT_P"},
    {"optimize", Value::kText, kSearching, sched::objective_choices(),
     "branch-and-bound for the best schedule\n(implies --complete)"},
    {"engine", Value::kText, kSearching, sched::search_engine_choices(),
     "exploration order (docs/search.md)"},
    {"state-classes", Value::kText, kSearching,
     sched::state_class_mode_choices(),
     "class-keyed visited set + doom pruning\n"
     "(auto: on for exhaustive runs)"},
    {"threads", Value::kCount, kSearching, "N",
     "parallel search (0 = serial, at most " +
         std::to_string(sched::kMaxThreads) + ")",
     0, sched::kMaxThreads},
    {"deterministic", Value::kNone, kSearching, "",
     "thread-count-independent outcome"},
    {"max-states", Value::kCount, kSearching | kReach, "N",
     "state budget (default " +
         std::to_string(sched::SchedulerOptions{}.max_states) +
         ", 0 = unbounded);\n"
         "with the next two, the hard resource guards\n"
         "(docs/robustness.md)"},
    {"wall-limit", Value::kCount, kSearching | kReach, "MS",
     "wall-clock budget (0 = off)"},
    {"mem-limit", Value::kBytes, kSearching | kReach, "BYTES[k|m|g]",
     "memory budget (0 = off)"},
    {"progress", Value::kOptionalCount, kSchedule | kReach | kRobust, "MS",
     "heartbeat on stderr (default every 1000 ms;\n"
     "robust: during synthesis)"},
    {"report", Value::kText, kSchedule | kExplain | kReach | kRobust, "FILE",
     "JSON report: the schema-v" + std::to_string(core::kRunReportVersion) +
         " run report (explain:\n"
         "byte-deterministic; reach: with reachability);\n"
         "robust: the resilience report"},
    {"trace-out", Value::kText, kSchedule | kSimulate | kReach | kRobust,
     "FILE",
     "Chrome trace of the pipeline (simulate: the\n"
     "dispatcher's virtual-time track)"},
    {"trace", Value::kText, kSchedule, "FILE",
     "write the firing schedule, for `ezrt replay`"},
    {"no-minimize", Value::kNone, kExplain, "",
     "skip the culprit/slack re-runs"},
    {"sync-cap", Value::kCount, kExplain, "K",
     "bound for the budget search (default 64)", 1, kU32Max},
    {"output", Value::kText, kCodegen | kExportPnml | kExportDot | kWorkload,
     "FILE",
     "also -o; stdout without it (codegen: the\n"
     "required output directory)"},
    {"target", Value::kText, kCodegen, "host-sim|bare-metal",
     "code generation target"},
    {"mcu", Value::kText, kCodegen, "generic|8051|arm9|m68k|x86",
     "bare-metal port"},
    {"timer-hz", Value::kCount, kCodegen, "N", "dispatcher tick rate"},
    {"priorities", Value::kNone, kExportDot, "",
     "label transitions with their priorities"},
    {"cycles", Value::kCount, kSimulate, "N",
     "also check steady-state repetition, N periods"},
    {"tasks", Value::kCount, kWorkload, "N", "task count", 0, kU32Max},
    {"utilization", Value::kText, kWorkload, "U", "total utilization"},
    {"preemptive", Value::kText, kWorkload, "F",
     "fraction of preemptive tasks"},
    {"precedence", Value::kCount, kWorkload, "N", "precedence edges", 0,
     kU32Max},
    {"exclusion", Value::kCount, kWorkload, "N", "exclusion pairs", 0,
     kU32Max},
    {"processors", Value::kCount, kWorkload, "P", "processor count", 0,
     kU32Max},
    {"placement", Value::kText, kWorkload, "partitioned|global",
     "task placement"},
    {"messages", Value::kCount, kWorkload, "N", "cross-core channels", 0,
     kU32Max},
    {"seed", Value::kCount, kWorkload | kRobust, "S",
     "random seed (robust: fault materialization)"},
    {"classes", Value::kNone, kReach, "",
     "dense-time state-class graph"},
    {"faults", Value::kText, kRobust, "SPEC",
     "default wcet:0.3,drift:0.2,burst:0.1,fail:0.1"},
    {"intensities", Value::kText, kRobust, "LIST",
     "scale sweep (default 0.25,0.5,1,2,4)"},
    {"trials", Value::kCount, kRobust, "N",
     "trials per intensity (default 3)", 1, kU32Max},
    {"policies", Value::kText, kRobust, "LIST",
     "recovery policies, any of abort,skip-instance,\n"
     "retry-next-slot,fallback-online (default all)"},
    {"socket", Value::kText, kServe, "unix:PATH|tcp:HOST:PORT",
     "default tcp:127.0.0.1:7420; tcp:HOST:0 picks\n"
     "a free port"},
    {"workers", Value::kCount, kServe, "N", "search worker threads", 1,
     kU32Max},
    {"queue-depth", Value::kCount, kServe, "N", "admission queue bound", 1,
     kU32Max},
    {"cache-entries", Value::kCount, kServe, "N",
     "schedule cache capacity (0 = no storage)"},
    {"budget", Value::kCount, kServe, "MS", "default per-request budget",
     1},
    {"degrade-queue", Value::kCount, kServe, "N",
     "queue length at which exhaustive requests\n"
     "degrade (0 = never)",
     0,
     kU32Max},
    {"degrade-max-states", Value::kCount, kServe, "N",
     "state budget of a degraded search", 1},
    {"max-request-bytes", Value::kBytes, kServe, "BYTES[k|m|g]",
     "frame cap (at most 64m)", 1, serve::kMaxFrameBytes},
};

[[nodiscard]] const Option* find_option(std::string_view name) {
  for (const Option& option : kOptions) {
    if (option.name == name) {
      return &option;
    }
  }
  return nullptr;
}

/// Parses a byte count with an optional k/m/g (binary) suffix: "64m",
/// "2G", "1048576".
[[nodiscard]] Result<std::uint64_t> parse_bytes(std::string_view text) {
  const std::size_t unit = text.empty()
                               ? std::string_view::npos
                               : std::string_view("kKmMgG").find(text.back());
  unsigned shift = 0;
  if (unit != std::string_view::npos) {
    shift = 10 * static_cast<unsigned>(unit / 2 + 1);
    text.remove_suffix(1);
  }
  auto parsed = parse_uint(text);
  if (!parsed.ok()) {
    return parsed;
  }
  if (parsed.value() > std::numeric_limits<std::uint64_t>::max() >> shift) {
    return make_error(ErrorCode::kInvalidArgument, "byte count overflows");
  }
  return parsed.value() << shift;
}

/// A numeric option value, checked against the option's range.
[[nodiscard]] Result<std::uint64_t> parse_number(const Option& option,
                                                 std::string_view text) {
  auto parsed =
      option.value == Value::kBytes ? parse_bytes(text) : parse_uint(text);
  if (parsed.ok() &&
      (parsed.value() < option.min || parsed.value() > option.max)) {
    return make_error(ErrorCode::kInvalidArgument,
                      std::string(text) + " is out of range " +
                          std::to_string(option.min) + ".." +
                          std::to_string(option.max));
  }
  return parsed;
}

class Args;

struct Command {
  std::string_view name;
  CommandBit bit;
  std::size_t operand_count;  ///< exact number of positional arguments
  const char* operands;
  const char* help;
  int (*handler)(const Args&, std::ostream& out, std::ostream& err,
                 const base::CancelToken* cancel);
};

/// A command line checked against the option table: every option exists,
/// applies to the command and carries a well-formed value, and the
/// positional count matches the command's operands.
class Args {
 public:
  [[nodiscard]] static Result<Args> parse(const std::vector<std::string>& argv,
                                          const Command& command) {
    Args args;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      const std::string& arg = argv[i];
      if (arg.rfind("--", 0) != 0 && arg != "-o") {
        args.positional_.push_back(arg);
        continue;
      }
      std::string_view name =
          arg == "-o" ? "output" : std::string_view(arg).substr(2);
      std::optional<std::string> text;
      if (const std::size_t eq = name.find('='); eq != name.npos) {
        text = std::string(name.substr(eq + 1));
        name = name.substr(0, eq);
      }
      const std::string flag = "--" + std::string(name);
      const Option* option = find_option(name);
      if (option == nullptr) {
        return invalid("unknown option '" + flag + "'");
      }
      if ((option->commands & command.bit) == 0) {
        return invalid("option '" + flag + "' does not apply to '" +
                       std::string(command.name) + "'");
      }
      if (option->value == Value::kNone && text.has_value()) {
        return invalid("option '" + flag + "' takes no value");
      }
      if (option->value == Value::kOptionalCount && text == "") {
        text.reset();  // --progress= is --progress
      }
      const bool needs_value = option->value != Value::kNone &&
                               option->value != Value::kOptionalCount;
      if (needs_value && !text.has_value()) {
        if (i + 1 == argv.size() || argv[i + 1].rfind("--", 0) == 0) {
          return invalid("option '" + flag + "' expects " + option->metavar);
        }
        text = argv[++i];
      }
      Entry entry;
      if (text.has_value() && option->value != Value::kText) {
        auto number = parse_number(*option, *text);
        if (!number.ok()) {
          return invalid(flag + ": " + number.error().message());
        }
        entry.number = number.value();
      }
      entry.text = text.value_or("");
      args.options_[option->name] = std::move(entry);
    }
    const std::string synopsis =
        "ezrt " + std::string(command.name) + " " + command.operands;
    if (args.positional_.size() < command.operand_count) {
      return invalid("missing argument: " + synopsis);
    }
    if (args.positional_.size() > command.operand_count) {
      return invalid("unexpected argument '" +
                     args.positional_[command.operand_count] + "'");
    }
    return args;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return options_.contains(name);
  }
  [[nodiscard]] std::optional<std::string> value(std::string_view name) const {
    auto it = options_.find(name);
    if (it == options_.end()) {
      return std::nullopt;
    }
    return it->second.text;
  }
  /// The value of a numeric option, already range-checked.
  [[nodiscard]] std::optional<std::uint64_t> number(
      std::string_view name) const {
    auto it = options_.find(name);
    if (it == options_.end()) {
      return std::nullopt;
    }
    return it->second.number;
  }
  /// Stores a numeric option into `field` when it was given. The table
  /// bounds each option to its field's width, so the cast never truncates.
  template <typename Field>
  void read(std::string_view name, Field& field) const {
    if (auto n = number(name)) {
      EZRT_CHECK(*n <= std::numeric_limits<Field>::max(),
                 "the option table admits values its field cannot hold");
      field = static_cast<Field>(*n);
    }
  }

 private:
  struct Entry {
    std::string text;
    std::optional<std::uint64_t> number;
  };

  [[nodiscard]] static Error invalid(std::string message) {
    return make_error(ErrorCode::kInvalidArgument, std::move(message));
  }

  std::vector<std::string> positional_;
  std::map<std::string_view, Entry> options_;
};

// -- Shared plumbing ----------------------------------------------------------

[[nodiscard]] Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kIoError, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[nodiscard]] Status write_file(const std::filesystem::path& path,
                                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return make_error(ErrorCode::kIoError,
                      "cannot write '" + path.string() + "'");
  }
  out << content;
  return Status();
}

/// A decimal number that spans the whole text, or nullopt.
[[nodiscard]] std::optional<double> parse_decimal(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size()) {
      return value;
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Reads one of the sched option spellings, naming the flag on failure.
template <typename Enum>
[[nodiscard]] Status read_spelling(const Args& args, std::string_view name,
                                   Result<Enum> (*parse)(std::string_view),
                                   Enum& field) {
  if (auto text = args.value(name)) {
    auto parsed = parse(*text);
    if (!parsed.ok()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "--" + std::string(name) + " " +
                            parsed.error().message());
    }
    field = parsed.value();
  }
  return Status();
}

/// Loads the project from the spec file named by the first positional,
/// with the build and search options of the command line. `tracer`
/// (optional) records the spec-parse stage span; `cancel` (optional) is
/// plumbed into the scheduler's resource guards.
[[nodiscard]] Result<core::Project> load_project(
    const Args& args, obs::Tracer* tracer = nullptr,
    const base::CancelToken* cancel = nullptr) {
  auto document = read_file(args.positional()[0]);
  if (!document.ok()) {
    return document.error();
  }
  builder::BuildOptions build;
  if (args.has("paper-blocks")) {
    build.style = builder::BlockStyle::kPaper;
  }
  sched::SchedulerOptions scheduler;
  if (args.has("complete")) {
    scheduler.pruning = sched::PruningMode::kNone;
  }
  sched::Objective objective = sched::Objective::kFirstFeasible;
  for (Status status :
       {read_spelling(args, "optimize", sched::parse_objective, objective),
        read_spelling(args, "engine", sched::parse_search_engine,
                      scheduler.search_engine),
        read_spelling(args, "state-classes", sched::parse_state_class_mode,
                      scheduler.state_classes)}) {
    if (!status.ok()) {
      return status.error();
    }
  }
  sched::set_objective(scheduler, objective);
  args.read("max-states", scheduler.max_states);
  args.read("wall-limit", scheduler.wall_limit_ms);
  args.read("mem-limit", scheduler.memory_limit_bytes);
  args.read("threads", scheduler.threads);
  scheduler.deterministic = args.has("deterministic");
  scheduler.cancel = cancel;
  auto parsed = [&] {
    obs::Span span(tracer, "spec-parse", "pipeline");
    return pnml::read_ezspec(document.value());
  }();
  if (!parsed.ok()) {
    return parsed.error();
  }
  spec::Specification specification = std::move(parsed).value();
  if (auto budget = args.number("sync-budget")) {
    // Override the declared shared-synchronization pool K: shrinking it
    // below a schedule's high-water mark flips the verdict to infeasible
    // (docs/multiprocessor.md).
    specification.set_sync_budget(static_cast<std::uint32_t>(*budget));
  }
  return core::Project(std::move(specification), build, scheduler);
}

/// The --report and --trace-out files of one run, and the span tracer
/// that feeds them. The tracer records when a Chrome trace is asked for,
/// or a report that carries the stage spans.
class Outputs {
 public:
  Outputs(const Args& args, bool report_has_spans)
      : report_(args.value("report")),
        trace_out_(args.value("trace-out")),
        recording_(trace_out_.has_value() ||
                   (report_has_spans && report_.has_value())) {}

  [[nodiscard]] obs::Tracer* tracer() {
    return recording_ ? &tracer_ : nullptr;
  }
  [[nodiscard]] bool wants_report() const { return report_.has_value(); }

  /// Writes the report `render` produces, then the Chrome trace — each
  /// only when asked for — and names the files on `out`.
  template <typename Render>
  [[nodiscard]] Status write(std::ostream& out, Render render,
                             std::string_view lead = "") {
    if (report_.has_value()) {
      if (auto s = write_file(*report_, render()); !s.ok()) {
        return s;
      }
      out << lead << "report written to " << *report_ << "\n";
    }
    return write_trace(out);
  }

  [[nodiscard]] Status write_trace(std::ostream& out) {
    if (trace_out_.has_value()) {
      if (auto s = obs::write_trace_file(tracer_, *trace_out_); !s.ok()) {
        return s;
      }
      out << "trace written to " << *trace_out_ << "\n";
    }
    return Status();
  }

 private:
  std::optional<std::string> report_;
  std::optional<std::string> trace_out_;
  bool recording_;
  obs::Tracer tracer_;
};

/// The --progress heartbeat. It prints to stderr so stdout stays
/// parseable; without the flag, sink() is null and nothing runs.
class Progress {
 public:
  Progress(const Args& args, std::ostream& err) {
    if (args.has("progress")) {
      reporter_.emplace(sink_, err,
                        std::chrono::milliseconds(
                            args.number("progress").value_or(1000)));
    }
  }

  [[nodiscard]] obs::ProgressSink* sink() {
    return reporter_.has_value() ? &sink_ : nullptr;
  }
  void stop() {
    if (reporter_.has_value()) {
      reporter_->stop();
    }
  }

 private:
  obs::ProgressSink sink_;
  std::optional<obs::ProgressReporter> reporter_;
};

// -- Command handlers ---------------------------------------------------------

int cmd_info(const Args& args, std::ostream& out, std::ostream& err,
             const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const spec::Specification& s = project.value().specification();
  out << "specification: " << s.name() << "\n"
      << "  processors: " << s.processor_count() << "\n"
      << "  tasks:      " << s.task_count() << "\n"
      << "  messages:   " << s.message_count() << "\n"
      << "  utilization: " << s.utilization() << "\n"
      << "  sync budget: " << s.sync_budget() << "\n";
  if (auto ps = s.schedule_period(); ps.ok()) {
    out << "  schedule period: " << ps.value() << "\n"
        << "  task instances:  " << s.total_instances().value() << "\n";
  }
  if (s.processor_count() > 1) {
    out << "  processors (name utilization):\n";
    for (ProcessorId id : s.processor_ids()) {
      out << "    " << s.processor(id).name << " " << s.utilization(id)
          << "\n";
    }
  }
  if (s.message_count() > 0) {
    // Routing: which bus each cross-core channel crosses, and its cost.
    out << "  messages (name sender -> [bus] -> receiver, grant+comm):\n";
    for (MessageId id : s.message_ids()) {
      const spec::Message& m = s.message(id);
      const std::string sender =
          m.sender.valid() ? s.task(m.sender).name : "?";
      const std::string receiver =
          m.receiver.valid() ? s.task(m.receiver).name : "?";
      out << "    " << m.name << " " << sender << " -> [" << m.bus
          << "] -> " << receiver << ", " << m.grant_bus << "+"
          << m.communication << "\n";
    }
  }
  out << "  tasks (name c d p ph r mode):\n";
  for (TaskId id : s.task_ids()) {
    const spec::Task& t = s.task(id);
    out << "    " << t.name << " " << t.timing.computation << " "
        << t.timing.deadline << " " << t.timing.period << " "
        << t.timing.phase << " " << t.timing.release << " "
        << (t.scheduling == spec::SchedulingType::kPreemptive ? "P" : "NP")
        << "\n";
  }
  out << "  analytic schedulability pre-checks:\n"
      << runtime::format_admission(runtime::check_admission(s));
  return kExitOk;
}

int cmd_validate(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  out << "specification is valid\n";
  return kExitOk;
}

int cmd_schedule(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken* cancel) {
  Outputs outputs(args, /*report_has_spans=*/true);
  auto project = load_project(args, outputs.tracer(), cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(outputs.tracer());
  if (outputs.wants_report()) {
    // Reports carry the per-worker/per-shard breakdown; collection runs
    // after the verdict and never perturbs the search.
    p.scheduler_options().collect_telemetry = true;
  }

  Progress progress(args, err);
  p.scheduler_options().progress = progress.sink();
  const Status status = p.schedule();
  progress.stop();

  // Report and Chrome trace are written on success *and* failure: the
  // effort spent proving infeasibility is exactly what one wants to
  // inspect afterwards. Run after the table/trace outputs so their
  // pipeline spans land in the report.
  auto write_outputs = [&] {
    return outputs.write(
        out, [&] { return core::run_report_json(p, outputs.tracer()); });
  };

  if (!status.ok()) {
    err << "error: " << status.error() << "\n";
    if (p.scheduled()) {
      err << "  states visited: " << p.outcome().stats.states_visited
          << ", backtracks: " << p.outcome().stats.backtracks << "\n";
    }
    // The report is still written with the partial search statistics —
    // a cancelled or budget-limited run leaves a full audit trail.
    if (auto s = write_outputs(); !s.ok()) {
      err << "error: " << s.error() << "\n";
    }
    return exit_code_for(status.error());
  }
  const sched::SearchStats& stats = p.outcome().stats;
  out << "feasible schedule: " << p.outcome().trace.size() << " firings, "
      << stats.states_visited << " states, " << stats.elapsed_ms << " ms\n";
  if (p.outcome().parallel_verdict_ms > 0.0) {
    out << "deterministic: " << p.outcome().parallel_verdict_ms
        << " ms parallel verdict + " << stats.elapsed_ms
        << " ms serial trace re-derivation\n";
  }
  out << "search effort: pruned deadline=" << stats.pruned_deadline
      << " revisited=" << stats.pruned_visited
      << " priority=" << stats.pruned_priority << ", peak visited "
      << stats.peak_visited_bytes << " bytes\n";
  if (args.has("optimize")) {
    out << "optimized: best cost " << p.outcome().best_cost << " over "
        << p.outcome().solutions_found << " schedule(s) considered\n";
  }
  auto table = p.table();
  if (!table.ok()) {
    return fail(err, table.error());
  }
  out << sched::to_string(table.value(), p.specification());
  if (auto trace_path = args.value("trace")) {
    const std::string document =
        sched::write_trace(p.model().net, p.outcome().trace);
    if (auto status2 = write_file(*trace_path, document); !status2.ok()) {
      return fail(err, status2.error());
    }
    out << "trace written to " << *trace_path << "\n";
  }
  if (auto s = write_outputs(); !s.ok()) {
    return fail(err, s.error());
  }
  return kExitOk;
}

int cmd_explain(const Args& args, std::ostream& out, std::ostream& err,
                const base::CancelToken* cancel) {
  Outputs outputs(args, /*report_has_spans=*/false);
  auto project = load_project(args, nullptr, cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  // The provenance contract (docs/explain.md §4): attribution counters on,
  // thread-count-independent outcome, and byte-deterministic report
  // emission — the same spec and options always produce the same bytes.
  p.scheduler_options().collect_attribution = true;
  p.scheduler_options().deterministic = true;
  if (p.scheduler_options().wall_limit_ms != 0) {
    // One budget for the whole explanation, not per search: without the
    // absolute deadline, every culprit-minimization probe would restart
    // the relative wall limit at its own t0 and `--wall-limit 100` could
    // legally burn 100 ms × probes (docs/robustness.md).
    p.scheduler_options().deadline =
        saturating_deadline(std::chrono::steady_clock::now(),
                            p.scheduler_options().wall_limit_ms);
  }

  obs::ExplainOptions explain_options;
  explain_options.minimize = !args.has("no-minimize");
  args.read("sync-cap", explain_options.sync_budget_cap);

  // Layer 1 first: a violated necessary condition explains infeasibility
  // without any search, so trivially-doomed specs answer in microseconds.
  obs::Explanation explanation;
  if (obs::certificates_prove_infeasible(
          obs::analytic_certificates(p.specification()))) {
    explain_options.scheduler = p.scheduler_options();
    explanation = obs::build_explanation(p.specification(), nullptr, nullptr,
                                         nullptr, explain_options);
  } else {
    const Status status = p.schedule();
    if (!p.scheduled()) {
      // The pipeline failed before a verdict (parse/validate/build); there
      // is nothing to explain.
      return fail(err, status.error());
    }
    explain_options.scheduler = p.scheduler_options();
    Result<sched::ScheduleTable> table = make_error(
        ErrorCode::kInternal, "no schedule");
    const sched::ScheduleTable* table_ptr = nullptr;
    if (p.outcome().status == sched::SearchStatus::kFeasible) {
      table = p.table();
      if (table.ok()) {
        table_ptr = &table.value();
      }
    }
    explanation = obs::build_explanation(p.specification(), &p.model().net,
                                         &p.outcome(), table_ptr,
                                         explain_options);
  }

  out << obs::render_explanation(explanation);
  core::RunReportExtras extras;
  extras.explanation = &explanation;
  extras.deterministic = true;
  if (auto s = outputs.write(
          out, [&] { return core::run_report_json(p, nullptr, &extras); });
      !s.ok()) {
    return fail(err, s.error());
  }
  // The exit code mirrors the verdict the explanation was built for, so
  // scripts can branch identically on `ezrt schedule` and `ezrt explain`.
  return exit_code_for(explanation.status);
}

int cmd_codegen(const Args& args, std::ostream& out, std::ostream& err,
                const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const auto dir = args.value("output");
  if (!dir.has_value()) {
    err << "error: codegen requires -o <dir>\n";
    return kExitInvalidInput;
  }
  codegen::CodegenOptions options;
  if (auto target = args.value("target")) {
    if (*target == "bare-metal") {
      options.target = codegen::Target::kBareMetal;
    } else if (*target == "host-sim") {
      options.target = codegen::Target::kHostSim;
    } else {
      err << "error: unknown target '" << *target << "'\n";
      return kExitInvalidInput;
    }
  }
  if (auto mcu = args.value("mcu")) {
    auto family = codegen::mcu_family_from_string(*mcu);
    if (!family.ok()) {
      err << "error: " << family.error() << "\n";
      return kExitInvalidInput;
    }
    options.mcu = family.value();
  }
  args.read("timer-hz", options.timer_hz);
  auto code = project.value().generate_code(options);
  if (!code.ok()) {
    return fail(err, code.error());
  }
  std::filesystem::create_directories(*dir);
  for (const codegen::GeneratedFile& file : code.value().files) {
    if (auto status =
            write_file(std::filesystem::path(*dir) / file.name,
                       file.content);
        !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << (std::filesystem::path(*dir) / file.name).string()
        << "\n";
  }
  return kExitOk;
}

/// Writes `document` to the -o file, or to `out` without one.
int emit(const Args& args, const std::string& document, std::ostream& out,
         std::ostream& err) {
  if (auto path = args.value("output")) {
    if (auto status = write_file(*path, document); !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << *path << "\n";
  } else {
    out << document;
  }
  return kExitOk;
}

int cmd_export_dot(const Args& args, std::ostream& out, std::ostream& err,
                   const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  if (auto status = project.value().build(); !status.ok()) {
    return fail(err, status.error());
  }
  tpn::DotOptions options;
  options.show_priorities = args.has("priorities");
  return emit(args, tpn::write_dot(project.value().model().net, options),
              out, err);
}

int cmd_export_pnml(const Args& args, std::ostream& out, std::ostream& err,
                    const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  auto document = project.value().export_pnml();
  if (!document.ok()) {
    return fail(err, document.error());
  }
  return emit(args, document.value(), out, err);
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  Outputs outputs(args, /*report_has_spans=*/false);
  auto project = load_project(args, outputs.tracer());
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(outputs.tracer());
  auto table = p.table();
  if (!table.ok()) {
    return fail(err, table.error());
  }
  runtime::DispatchSimOptions sim_options;
  sim_options.tracer = outputs.tracer();
  const runtime::DispatcherRun run = runtime::simulate_dispatcher(
      p.specification(), table.value(), sim_options);
  out << "dispatcher run: " << run.outcomes.size() << " instances, "
      << run.context_saves << " saves, " << run.context_restores
      << " restores, "
      << (run.all_deadlines_met ? "all deadlines met" : "DEADLINES MISSED")
      << "\n\n";
  const runtime::ScheduleMetrics metrics =
      runtime::compute_metrics(p.specification(), table.value());
  out << runtime::format_metrics(p.specification(), metrics) << "\n";
  out << runtime::render_gantt(p.specification(), table.value()) << "\n";
  const auto latencies =
      runtime::analyze_latency(p.specification(), table.value());
  if (!latencies.empty()) {
    out << "end-to-end chain latency:\n"
        << runtime::format_latency(p.specification(), latencies) << "\n";
  }
  if (auto status = outputs.write_trace(out); !status.ok()) {
    return fail(err, status.error());
  }

  if (auto cycles = args.number("cycles")) {
    const runtime::CyclicCheck check =
        runtime::check_repeatable(p.specification(), table.value());
    if (!check.repeatable) {
      err << "schedule is not repeatable:\n";
      for (const std::string& reason : check.reasons) {
        err << "  - " << reason << "\n";
      }
      return kExitFailure;
    }
    const runtime::CyclicRun cyclic = runtime::simulate_cyclic(
        p.specification(), table.value(), *cycles);
    out << "cyclic run over " << cyclic.cycles << " schedule periods: "
        << cyclic.instances_completed << " instances, "
        << cyclic.deadline_misses << " misses, "
        << cyclic.context_switches << " context switches, busy "
        << cyclic.total_busy << " / idle " << cyclic.total_idle << "\n";
    return cyclic.ok && run.ok() ? kExitOk : kExitFailure;
  }
  return run.ok() ? kExitOk : kExitFailure;
}

int cmd_workload(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  workload::WorkloadConfig config;
  args.read("tasks", config.tasks);
  args.read("seed", config.seed);
  args.read("precedence", config.precedence_edges);
  args.read("exclusion", config.exclusion_pairs);
  args.read("processors", config.processors);
  args.read("messages", config.messages);
  args.read("sync-budget", config.sync_budget);
  if (auto value = args.value("placement")) {
    if (*value == "partitioned") {
      config.placement = workload::Placement::kPartitioned;
    } else if (*value == "global") {
      config.placement = workload::Placement::kGlobal;
    } else {
      err << "error: --placement expects partitioned|global\n";
      return kExitInvalidInput;
    }
  }
  for (auto [name, field] : {std::pair{"utilization", &config.utilization},
                              std::pair{"preemptive",
                                        &config.preemptive_fraction}}) {
    if (auto text = args.value(name)) {
      const std::optional<double> value = parse_decimal(*text);
      if (!value.has_value()) {
        err << "error: --" << name << " expects a number, got '" << *text
            << "'\n";
        return kExitInvalidInput;
      }
      *field = *value;
    }
  }
  auto generated = workload::generate(config);
  if (!generated.ok()) {
    return fail(err, generated.error());
  }
  auto document = pnml::write_ezspec(generated.value());
  if (!document.ok()) {
    return fail(err, document.error());
  }
  if (auto path = args.value("output")) {
    if (auto status = write_file(*path, document.value()); !status.ok()) {
      return fail(err, status.error());
    }
    out << "wrote " << *path << " (" << generated.value().task_count()
        << " tasks, U = " << generated.value().utilization() << ")\n";
  } else {
    out << document.value();
  }
  return kExitOk;
}

int cmd_baseline(const Args& args, std::ostream& out, std::ostream& err,
                 const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  const spec::Specification& s = project.value().specification();
  out << "policy    schedulable  misses  preemptions  dispatches\n";
  for (const auto policy :
       {runtime::OnlinePolicy::kEdf, runtime::OnlinePolicy::kDeadlineMonotonic,
        runtime::OnlinePolicy::kRateMonotonic,
        runtime::OnlinePolicy::kEdfNonPreemptive}) {
    const runtime::OnlineResult r = runtime::simulate_online(s, policy);
    char line[96];
    std::snprintf(line, sizeof(line), "%-9s %-12s %6llu %12llu %11llu\n",
                  runtime::to_string(policy), r.schedulable ? "yes" : "no",
                  static_cast<unsigned long long>(r.deadline_misses),
                  static_cast<unsigned long long>(r.preemptions),
                  static_cast<unsigned long long>(r.dispatches));
    out << line;
  }
  return kExitOk;
}

int cmd_replay(const Args& args, std::ostream& out, std::ostream& err,
               const base::CancelToken*) {
  auto project = load_project(args);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  if (auto status = p.build(); !status.ok()) {
    return fail(err, status.error());
  }
  auto document = read_file(args.positional()[1]);
  if (!document.ok()) {
    return fail(err, document.error());
  }
  auto trace = sched::read_trace(p.model().net, document.value());
  if (!trace.ok()) {
    return fail(err, trace.error());
  }
  sched::DfsScheduler scheduler(p.model().net);
  auto final_state = scheduler.replay(trace.value());
  if (!final_state.ok()) {
    err << "replay FAILED: " << final_state.error() << "\n";
    return exit_code_for(final_state.error());
  }
  const bool reaches_goal =
      tpn::is_final_marking(p.model().net, final_state.value().marking());
  out << "replayed " << trace.value().size() << " firings; final marking "
      << (reaches_goal ? "reaches" : "DOES NOT reach") << " M_F\n";
  return reaches_goal ? kExitOk : kExitFailure;
}

int cmd_reach(const Args& args, std::ostream& out, std::ostream& err,
              const base::CancelToken* cancel) {
  Outputs outputs(args, /*report_has_spans=*/true);
  auto project = load_project(args, outputs.tracer(), cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(outputs.tracer());
  if (auto status = p.build(); !status.ok()) {
    return fail(err, status.error());
  }
  // load_project parsed the guard flags into the search options.
  const sched::SchedulerOptions& guards = p.scheduler_options();
  Progress progress(args, err);
  if (args.has("classes")) {
    // Dense-time analysis via the state-class graph (Berthomieu-Diaz).
    tpn::ClassGraphOptions options;
    options.max_classes = guards.max_states;
    const tpn::ClassGraphResult result =
        tpn::build_class_graph(p.model().net, options);
    out << "state-class graph ("
        << (result.complete ? "complete" : "bounded") << ", dense time):\n"
        << "  classes explored:  " << result.classes_explored << "\n"
        << "  edges:             " << result.edges << "\n"
        << "  distinct markings: " << result.distinct_markings << "\n"
        << "  final reachable:   "
        << (result.final_reachable ? "yes" : "no") << "\n"
        << "  miss reachable:    "
        << (result.miss_reachable ? "yes" : "no") << "\n";
    return kExitOk;
  }
  sched::ReachabilityOptions options;
  options.max_states = guards.max_states;
  options.wall_limit_ms = guards.wall_limit_ms;
  options.memory_limit_bytes = guards.memory_limit_bytes;
  options.cancel = cancel;
  options.progress = progress.sink();
  const sched::ReachabilityResult result = [&] {
    obs::Span span(outputs.tracer(), "reachability", "pipeline");
    return sched::explore(p.model().net, options);
  }();
  progress.stop();
  // Report and Chrome trace are written for every stop reason: a
  // budget-limited exploration leaves the same audit trail as a complete
  // one (mirrors `ezrt schedule --report`).
  core::RunReportExtras extras;
  extras.reachability = &result;
  if (auto s = outputs.write(out,
                             [&] {
                               return core::run_report_json(
                                   p, outputs.tracer(), &extras);
                             });
      !s.ok()) {
    return fail(err, s.error());
  }
  out << "reachability ("
      << (result.complete ? "complete" : sched::to_string(result.stop))
      << "):\n"
      << "  states explored:  " << result.states_explored << "\n"
      << "  final reachable:  " << (result.final_reachable ? "yes" : "no")
      << "\n"
      << "  miss reachable:   " << (result.miss_reachable ? "yes" : "no")
      << "\n"
      << "  deadlock found:   " << (result.deadlock_found ? "yes" : "no")
      << "\n"
      << "  place bound:      " << result.bound << "\n";
  // A bounded-but-finished analysis is the documented default mode (exit
  // 0); only a tripped wall/memory guard or a cancellation escalates.
  switch (result.stop) {
    case sched::ReachabilityStop::kTimeLimit:
    case sched::ReachabilityStop::kMemoryLimit:
      return kExitLimit;
    case sched::ReachabilityStop::kCancelled:
      return kExitCancelled;
    case sched::ReachabilityStop::kComplete:
    case sched::ReachabilityStop::kStateBudget:
      break;
  }
  return kExitOk;
}

int cmd_robust(const Args& args, std::ostream& out, std::ostream& err,
               const base::CancelToken* cancel) {
  // Campaign parameters. The defaults exercise every fault kind and
  // every recovery policy over a 16x intensity range.
  auto fault_specs = runtime::parse_fault_specs(
      args.value("faults").value_or("wcet:0.3,drift:0.2,burst:0.1,fail:0.1"));
  if (!fault_specs.ok()) {
    return fail(err, fault_specs.error());
  }
  runtime::CampaignOptions campaign;
  campaign.cancel = cancel;
  if (auto list = args.value("intensities")) {
    campaign.intensities.clear();
    for (const std::string& entry : split(*list, ',')) {
      const std::optional<double> value = parse_decimal(entry);
      if (!value.has_value() || !(*value > 0.0)) {
        err << "error: --intensities expects positive numbers, got '"
            << entry << "'\n";
        return kExitInvalidInput;
      }
      campaign.intensities.push_back(*value);
    }
  }
  args.read("trials", campaign.trials);
  args.read("seed", campaign.seed);
  if (auto list = args.value("policies")) {
    campaign.policies.clear();
    for (const std::string& entry : split(*list, ',')) {
      auto policy = runtime::parse_recovery_policy(entry);
      if (!policy.ok()) {
        return fail(err, policy.error());
      }
      campaign.policies.push_back(policy.value());
    }
  }

  // The resilience report carries no stage spans.
  Outputs outputs(args, /*report_has_spans=*/false);
  campaign.tracer = outputs.tracer();
  auto project = load_project(args, outputs.tracer(), cancel);
  if (!project.ok()) {
    return fail(err, project.error());
  }
  core::Project& p = project.value();
  p.set_tracer(outputs.tracer());

  // --progress covers the synthesis phase (the search is where a campaign
  // can stall); the trial sweep afterwards is bounded work.
  Progress progress(args, err);
  p.scheduler_options().progress = progress.sink();
  auto table = p.table();  // synthesizes the schedule on demand
  progress.stop();
  if (!table.ok()) {
    return fail(err, table.error());
  }

  const runtime::ResilienceReport report = runtime::run_campaign(
      p.specification(), table.value(), fault_specs.value(), campaign);

  out << "resilience campaign: " << report.spec_name << ", seed "
      << report.seed << ", " << report.intensities.size()
      << " intensities x " << report.trials << " trials x "
      << campaign.policies.size() << " policies"
      << (report.cancelled ? " (cancelled)" : "") << "\n\n"
      << runtime::format_resilience(report);
  if (auto s = outputs.write(
          out, [&] { return runtime::resilience_report_json(report); },
          "\n");
      !s.ok()) {
    return fail(err, s.error());
  }
  return report.cancelled ? kExitCancelled : kExitOk;
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err,
              const base::CancelToken* cancel) {
  serve::ServerOptions options;
  options.endpoint = args.value("socket").value_or("tcp:127.0.0.1:7420");
  args.read("workers", options.workers);
  args.read("queue-depth", options.queue_depth);
  args.read("cache-entries", options.cache_entries);
  args.read("budget", options.default_budget_ms);
  args.read("degrade-queue", options.degrade_queue);
  args.read("degrade-max-states", options.degrade_max_states);
  args.read("max-request-bytes", options.max_request_bytes);

  serve::Server server(options);
  if (auto status = server.start(); !status.ok()) {
    return fail(err, status.error());
  }
  out << "serving on " << server.endpoint() << " ("
      << "workers, queue, cache: " << options.workers << ", "
      << options.queue_depth << ", " << options.cache_entries << ")\n"
      << "SIGINT/SIGTERM drain in-flight requests before exit\n";
  out.flush();
  while (!(cancel != nullptr && cancel->requested())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  out << "draining...\n";
  out.flush();
  server.shutdown();
  server.wait();
  const serve::ServerStats stats = server.stats();
  out << "drained: " << stats.requests << " requests, " << stats.ok
      << " ok, " << stats.sheds << " shed, " << stats.degrades
      << " degraded, " << stats.invalid << " invalid, cache "
      << stats.cache.hits << " hits / " << stats.cache.misses
      << " misses / " << stats.cache.coalesced << " coalesced\n";
  return kExitCancelled;
}

constexpr Command kCommands[] = {
    {"info", kInfo, 1, "<spec.xml>",
     "derived quantities (hyper-period, instances, U)", cmd_info},
    {"validate", kValidate, 1, "<spec.xml>",
     "check the spec against the metamodel rules", cmd_validate},
    {"schedule", kSchedule, 1, "<spec.xml>",
     "synthesize a schedule and print the table\n"
     "(one per core, plus the bus timeline, on\n"
     "multi-processor specs)",
     cmd_schedule},
    {"explain", kExplain, 1, "<spec.xml>",
     "verdict provenance (docs/explain.md): analytic\n"
     "certificates, blame, 1-minimal culprit sets,\n"
     "sync-budget bound and WCET slack; the exit\n"
     "code mirrors the verdict",
     cmd_explain},
    {"codegen", kCodegen, 1, "<spec.xml>",
     "emit the scheduled C program (-o DIR)", cmd_codegen},
    {"export-pnml", kExportPnml, 1, "<spec.xml>",
     "write the composed time Petri net", cmd_export_pnml},
    {"export-dot", kExportDot, 1, "<spec.xml>",
     "Graphviz rendering of the net", cmd_export_dot},
    {"simulate", kSimulate, 1, "<spec.xml>",
     "dispatcher simulation, metrics and Gantt", cmd_simulate},
    {"workload", kWorkload, 0, "", "generate a random task set",
     cmd_workload},
    {"baseline", kBaseline, 1, "<spec.xml>",
     "compare on-line EDF/DM/RM/NP-EDF schedulers", cmd_baseline},
    {"replay", kReplay, 2, "<spec.xml> <trace>",
     "audit a stored firing schedule", cmd_replay},
    {"reach", kReach, 1, "<spec.xml>",
     "bounded reachability / property check", cmd_reach},
    {"robust", kRobust, 1, "<spec.xml>",
     "fault-injection campaign over the schedule", cmd_robust},
    {"serve", kServe, 0, "",
     "scheduling-as-a-service socket server\n"
     "(docs/serve.md): cached, deadline-aware,\n"
     "drains on SIGTERM",
     cmd_serve},
};

/// Appends `head` padded to the help column, then `help` with its
/// continuation lines indented to that column.
void help_line(std::string& text, const std::string& head,
               std::string_view help) {
  constexpr std::size_t kColumn = 30;
  const std::string indent(kColumn, ' ');
  text += head;
  text += head.size() < kColumn ? std::string(kColumn - head.size(), ' ')
                                : "\n" + indent;
  text += replace_all(help, "\n", "\n" + indent);
  text += "\n";
}

}  // namespace

std::string usage() {
  std::string text =
      "ezrt — pre-runtime schedule synthesis for embedded hard real-time "
      "systems\n"
      "\n"
      "usage: ezrt <command> [operands] [options]\n"
      "\n"
      "commands:\n";
  for (const Command& command : kCommands) {
    help_line(text,
              "  " + std::string(command.name) + " " + command.operands,
              command.help);
  }
  help_line(text, "  help", "this text");
  std::uint32_t heading = 0;
  for (const Option& option : kOptions) {
    if (option.commands != heading) {
      heading = option.commands;
      std::string line = "\noptions of";
      for (const Command& command : kCommands) {
        if ((heading & command.bit) != 0) {
          if (line.size() + command.name.size() > 78) {
            text += line + "\n";
            line = " ";
          }
          line += " " + std::string(command.name);
        }
      }
      text += line + ":\n";
    }
    std::string head = "  --" + std::string(option.name);
    if (option.value == Value::kOptionalCount) {
      head += "[=" + option.metavar + "]";
    } else if (!option.metavar.empty()) {
      head += " " + option.metavar;
    }
    help_line(text, head, option.help);
  }
  text +=
      "\n"
      "exit codes: 0 success/feasible, 1 runtime failure, 2 infeasible,\n"
      "            3 state/wall/memory budget hit, 4 invalid input or "
      "usage,\n"
      "            130-family cancelled by signal (130 SIGINT, 143 "
      "SIGTERM)\n";
  return text;
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err, const base::CancelToken* cancel) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? kExitInvalidInput : kExitOk;
  }
  for (const Command& command : kCommands) {
    if (command.name == args[0]) {
      auto parsed = Args::parse(args, command);
      if (!parsed.ok()) {
        return fail(err, parsed.error());
      }
      return command.handler(parsed.value(), out, err, cancel);
    }
  }
  err << "error: unknown command '" << args[0] << "'\n" << usage();
  return kExitInvalidInput;
}

}  // namespace ezrt::cli
