// MRTS benchmark driver. One process runs one workload for a fixed
// measuring time and prints, as its last stdout line, one JSON object with
// the run's correctness counts and the values it measured, by metric name:
//
//   mrts_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer
// metrics (and writes the benchmark-side spans to --spans). run.py builds
// this binary, is the command the benchmark is run through, and attaches
// the units and order of BENCHMARK.json to the values.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mrts_perfbench: %s\nusage: mrts_perfbench --workload "
               "<oupdr_spill|oupdr_reread|opcdm_incore|service_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--spans") {
        o.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  (void)perfbench::process_start();
  const Options options = parse(argc, argv);
  if (options.trace) perfbench::spans().enable();
  try {
    perfbench::Outcome outcome;
    if (perfbench::is_mesh_workload(options.workload)) {
      outcome = perfbench::run_mesh_workload(options);
    } else if (options.workload == "service_mix") {
      outcome = perfbench::run_service_workload(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    if (options.trace && !options.spans_path.empty() &&
        !perfbench::spans().write(options.spans_path)) {
      std::fprintf(stderr, "mrts_perfbench: cannot write %s\n",
                   options.spans_path.c_str());
      return 1;
    }
    perfbench::print_result(outcome, options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrts_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
