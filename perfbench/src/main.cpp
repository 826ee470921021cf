// Benchmark program for ezRealtime. Usage:
//
//   perfbench run --workload compile_mix|exhaustive_search|serve_mix
//                 --seed N --seconds S --trace 0|1 --data DIR
//                 [--pool main|heldout] [--ezrt PATH] [--scratch DIR]
//   perfbench make-inputs --data DIR   (rewrites DIR/inputs/*.specs)
//   perfbench make-pins --data DIR     (rewrites DIR/pins.tsv)
//
// `run` prints one detail line and then the result line (see run.py).
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR [--pool main|heldout] [--ezrt PATH] "
               "[--scratch DIR]\n"
               "       perfbench make-inputs|make-pins --data DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string mode = argv[1];
  perfbench::RunConfig config;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        config.trace = value == "1";
      } else if (key == "--data") {
        config.data_dir = value;
      } else if (key == "--pool") {
        if (value != "main" && value != "heldout") {
          return usage();
        }
        config.pool_suffix = value == "heldout" ? "-heldout" : "";
      } else if (key == "--ezrt") {
        config.ezrt = value;
      } else if (key == "--scratch") {
        config.scratch = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (config.data_dir.empty()) {
    return usage();
  }
  if (mode == "make-inputs") {
    return perfbench::make_inputs(config.data_dir);
  }
  if (mode == "make-pins") {
    return perfbench::make_pins(config.data_dir);
  }
  if (mode != "run" || config.seconds <= 0) {
    return usage();
  }
  if (config.workload == "compile_mix" ||
      config.workload == "exhaustive_search") {
    return perfbench::run_closed_loop(config);
  }
  if (config.workload == "serve_mix") {
    return perfbench::run_serve_mix(config);
  }
  return usage();
}
