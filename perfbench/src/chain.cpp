#include "chain.hpp"

#include "codegen/c_generator.hpp"
#include "core/project.hpp"
#include "core/run_report.hpp"
#include "pnml/ezspec_io.hpp"
#include "runtime/validator.hpp"
#include "tpn/analysis.hpp"

namespace perfbench {

using namespace ezrt;

sched::SchedulerOptions compile_options() { return sched::SchedulerOptions{}; }

sched::SchedulerOptions exhaustive_options() {
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.max_states = 0;  // unbounded, so state classes are on (kAuto)
  options.threads = 4;
  return options;
}

ChainResult run_chain(const std::string& document,
                      const sched::SchedulerOptions& options,
                      Tracer& tracer) {
  ChainResult r;
  const Clock::time_point t0 = Clock::now();
  const int root = tracer.open(kItem, -1);

  Result<spec::Specification> parsed = [&] {
    Scope s(tracer, kReadEzspec, root);
    return pnml::read_ezspec(document);
  }();
  if (!parsed.ok()) {
    tracer.close(root);
    r.verdict = "parse-error";
    r.check_error = parsed.error().to_string();
    return r;
  }
  core::Project project(std::move(parsed).value(), {}, options);
  Status built = [&] {
    Scope s(tracer, kBuildTpn, root);
    return project.build();
  }();
  if (!built.ok()) {
    tracer.close(root);
    r.verdict = "build-error";
    r.check_error = built.error().to_string();
    return r;
  }
  {
    Scope s(tracer, kSearch, root);
    (void)project.schedule();  // the verdict is read from outcome()
  }
  const sched::SearchOutcome& outcome = project.outcome();
  r.verdict = sched::to_string(outcome.status);
  std::optional<sched::ScheduleTable> table;
  runtime::ValidationReport validation;
  if (outcome.status == sched::SearchStatus::kFeasible) {
    {
      Scope s(tracer, kExtract, root);
      auto extracted = project.table();
      if (extracted.ok()) {
        table = std::move(extracted).value();
      }
    }
    if (table.has_value()) {
      {
        Scope s(tracer, kValidate, root);
        validation =
            runtime::validate_schedule(project.specification(), *table);
      }
      Scope s(tracer, kCodegen, root);
      auto code = codegen::generate(project.specification(), *table);
      if (code.ok()) {
        for (const codegen::GeneratedFile& f : code.value().files) {
          r.code_bytes += f.content.size();
        }
      } else {
        r.check_error = "codegen: " + code.error().to_string();
      }
    }
  }
  {
    Scope s(tracer, kRunReport, root);
    r.report_bytes = core::run_report_json(project).size();
  }
  {
    Scope s(tracer, kWriteEzspec, root);
    auto canonical = pnml::write_ezspec(project.specification());
    if (!canonical.ok()) {
      r.check_error = "write_ezspec: " + canonical.error().to_string();
    }
  }
  tracer.close(root);
  r.latency_ms = ms_between(t0, Clock::now());

  r.stats = outcome.stats;
  for (const sched::WorkerTelemetry& w : outcome.telemetry.workers) {
    r.steals += w.steals;
    r.idle_transitions += w.idle_transitions;
  }
  r.places = project.model().net.place_count();
  r.transitions = project.model().net.transition_count();
  r.segments_checked = validation.segments_checked;

  if (outcome.status == sched::SearchStatus::kFeasible &&
      r.check_error.empty()) {
    if (!table.has_value()) {
      r.check_error = "feasible trace yields no schedule table";
    } else if (!validation.ok()) {
      r.check_error = "validator: " + validation.summary();
    } else {
      const sched::DfsScheduler replayer(project.model().net, options);
      auto final_state = replayer.replay(outcome.trace);
      if (!final_state.ok()) {
        r.check_error = "replay: " + final_state.error().to_string();
      } else if (!tpn::is_final_marking(project.model().net,
                                        final_state.value().marking())) {
        r.check_error = "replay does not end in the final marking";
      }
    }
  }
  return r;
}

}  // namespace perfbench
