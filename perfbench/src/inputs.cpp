// Maintenance modes: `make-inputs` writes the pinned input pools and
// `make-pins` derives pins.tsv from them. Both are run once, by hand, when
// the benchmark's inputs change; a benchmark run only reads their output.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "chain.hpp"
#include "pnml/ezspec_io.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace ezrt;

namespace {

/// Generator seed offset of the held-out pools: inputs no claim was tuned
/// on.
constexpr std::uint64_t kHeldOutSeedBase = 5000;

const char* const kExampleSpecs[] = {"harmonic_u40", "mine_pump",
                                     "uav_dual_processor"};

std::string two_digits(std::size_t i) {
  return (i < 10 ? "0" : "") + std::to_string(i);
}

/// compile_mix: 4-24 tasks; precedence, exclusion and preemptive tasks
/// mixed in; every fourth spec a 2-core partitioned or global scenario.
workload::WorkloadConfig compile_config(std::size_t i, std::uint64_t seed) {
  if (i % 8 == 6 || i % 8 == 7) {
    return workload::multiproc_scenario(
        i % 8 == 6 ? workload::Placement::kPartitioned
                   : workload::Placement::kGlobal,
        i % 16 < 8, 2, seed);
  }
  workload::WorkloadConfig config;
  config.tasks = static_cast<std::uint32_t>(4 + (i * 21) / 48);
  config.utilization = 0.3 + 0.03 * static_cast<double>((i * 7) % 10);
  config.precedence_edges = i % 3 == 0 ? 2 : 0;
  config.exclusion_pairs = i % 4 == 1 ? 2 : 0;
  config.preemptive_fraction = i % 5 == 2 ? 0.3 : 0.0;
  config.seed = seed;
  return config;
}

/// exhaustive_search: the BM_Parallel_ExhaustiveInfeasible family.
workload::WorkloadConfig exhaustive_config(std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.tasks = 10;
  config.utilization = 0.95;
  config.exclusion_pairs = 4;
  config.seed = seed;
  return config;
}

/// serve_mix hot pool: small specs that become cache hits.
workload::WorkloadConfig hot_config(std::size_t i, std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.tasks = static_cast<std::uint32_t>(4 + i % 5);
  config.utilization = 0.4;
  config.seed = seed;
  return config;
}

/// serve_mix miss bases: 10-task specs, renamed per request so every miss
/// is a never-seen digest.
workload::WorkloadConfig miss_config(std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.tasks = 10;
  config.utilization = 0.45;
  config.seed = seed;
  return config;
}

bool write_pool(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& docs) {
  std::ofstream out(path);
  for (const auto& [name, doc] : docs) {
    out << "%% " << name << "\n" << doc;
    if (!doc.empty() && doc.back() != '\n') {
      out << "\n";
    }
  }
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

int make_inputs(const std::string& data_dir) {
  const std::string repo = data_dir + "/..";
  std::filesystem::create_directories(data_dir + "/inputs");
  for (const std::string suffix : {"", "-heldout"}) {
    const std::uint64_t base = suffix.empty() ? 0 : kHeldOutSeedBase;
    using Docs = std::vector<std::pair<std::string, std::string>>;
    Docs compile, exhaustive, hot, miss;
    auto add = [](Docs& docs, std::string name,
                  const workload::WorkloadConfig& config) {
      auto spec = workload::generate(config);
      if (!spec.ok()) {
        std::cerr << name << ": " << spec.error() << "\n";
        return false;
      }
      docs.emplace_back(std::move(name), pnml::write_ezspec(spec.value()).value());
      return true;
    };
    bool ok = true;
    for (std::size_t i = 0; i < 48; ++i) {
      ok &= add(compile, "c" + two_digits(i), compile_config(i, base + 1 + i));
    }
    for (const char* example : kExampleSpecs) {
      compile.emplace_back(
          example, read_file(repo + "/examples/specs/" + example + ".ezspec"));
    }
    for (std::size_t i = 0; i < 24; ++i) {
      ok &= add(exhaustive, "x" + two_digits(i), exhaustive_config(base + 1 + i));
    }
    for (std::size_t i = 0; i < 16; ++i) {
      ok &= add(hot, "h" + two_digits(i), hot_config(i, base + 101 + i));
      ok &= add(miss, "m" + two_digits(i), miss_config(base + 201 + i));
    }
    const std::string dir = data_dir + "/inputs/";
    ok = ok && write_pool(dir + "compile" + suffix + ".specs", compile) &&
         write_pool(dir + "exhaustive" + suffix + ".specs", exhaustive) &&
         write_pool(dir + "serve-hot" + suffix + ".specs", hot) &&
         write_pool(dir + "serve-miss" + suffix + ".specs", miss);
    if (!ok) {
      return 1;
    }
  }
  return 0;
}

namespace {

/// No partial-order reduction, no priority filter, no state classes,
/// serial: shares none of the reductions the exhaustive workload runs with.
sched::SchedulerOptions reduction_free_options() {
  sched::SchedulerOptions options;
  options.pruning = sched::PruningMode::kNone;
  options.partial_order_reduction = false;
  options.state_classes = sched::StateClassMode::kOff;
  options.threads = 0;
  options.max_states = 20'000'000;
  return options;
}

std::string field(const std::optional<std::uint64_t>& v) {
  return v.has_value() ? std::to_string(*v) : "-";
}

}  // namespace

int make_pins(const std::string& data_dir) {
  std::ostringstream out;
  out << "# Pinned expectations for every benchmark input, written by\n"
         "# `perfbench make-pins`. Columns: pool, input, verdict,\n"
         "# states_visited (exact; '-' where the engine is not\n"
         "# deterministic), generated C bytes (exact; '-' where not\n"
         "# pinned), and the state count of the reduction-free oracle that\n"
         "# re-derived the verdict of each infeasible exhaustive input\n"
         "# (pruning none, POR off, classes off, serial).\n";
  int status = 0;
  for (const std::string suffix : {"", "-heldout"}) {
    for (const std::string kind :
         {"compile", "exhaustive", "serve-hot", "serve-miss"}) {
      const std::string pool = kind + suffix;
      std::string error;
      auto inputs = load_pool(data_dir + "/inputs", pool, error);
      if (!inputs) {
        std::cerr << error << "\n";
        return 1;
      }
      for (const Input& in : *inputs) {
        Tracer off(false);
        const bool exhaustive = kind == "exhaustive";
        sched::SchedulerOptions serial =
            exhaustive ? exhaustive_options() : compile_options();
        serial.threads = 0;
        const ChainResult a = run_chain(in.document, serial, off);
        const ChainResult b = run_chain(in.document, serial, off);
        Pin pin{a.verdict, {}, {}};
        std::optional<std::uint64_t> oracle_states;
        if (!a.check_error.empty() ||
            (a.verdict != "feasible" && a.verdict != "infeasible")) {
          std::cerr << pool << "/" << in.name << ": " << a.verdict << " "
                    << a.check_error << "\n";
          status = 1;
        }
        if (a.stats.states_visited == b.stats.states_visited) {
          pin.states = a.stats.states_visited;
        }
        if (a.verdict == "feasible" && a.code_bytes == b.code_bytes &&
            kind == "compile") {
          pin.generated_bytes = a.code_bytes;
        }
        if (exhaustive) {
          // The workload runs at 4 threads: the verdict must agree, and an
          // infeasible state count must not depend on the thread count.
          const ChainResult par = run_chain(in.document, exhaustive_options(), off);
          if (par.verdict != a.verdict ||
              (a.verdict == "infeasible" &&
               par.stats.states_visited != a.stats.states_visited)) {
            std::cerr << pool << "/" << in.name << ": 4 threads give "
                      << par.verdict << " after "
                      << par.stats.states_visited << " states\n";
            status = 1;
          }
          if (a.verdict == "feasible") {
            pin.states.reset();  // first-feasible at 4 threads races
          } else {
            const ChainResult oracle =
                run_chain(in.document, reduction_free_options(), off);
            if (oracle.verdict == "infeasible") {
              oracle_states = oracle.stats.states_visited;
            } else {
              std::cerr << pool << "/" << in.name
                        << ": reduction-free oracle says " << oracle.verdict
                        << " after " << oracle.stats.states_visited
                        << " states\n";
              status = 1;
            }
          }
        }
        out << pool << "\t" << in.name << "\t" << pin.verdict << "\t"
            << field(pin.states) << "\t" << field(pin.generated_bytes) << "\t"
            << field(oracle_states) << "\n";
        std::cerr << pool << "/" << in.name << " " << pin.verdict << " "
                  << a.stats.states_visited << " " << a.latency_ms << " ms\n";
      }
    }
  }
  std::ofstream file(data_dir + "/pins.tsv");
  file << out.str();
  return file ? status : 1;
}

}  // namespace perfbench
