// The lbnn benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: vgg_layer and cascade_timer (serving, see serving.cpp) and
// zoo_compile (compile pipeline, see zoo.cpp). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
// the per-layer metrics, timed from spans around calls into each module. The
// last line of standard output is the result object.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args* a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a->workload = val;
        have[0] = true;
      } else if (key == "--seed") {
        a->seed = std::stoull(val);
        have[1] = true;
      } else if (key == "--seconds") {
        a->seconds = std::stoi(val);
        have[2] = a->seconds > 0;
      } else if (key == "--trace") {
        a->trace = val == "1";
        have[3] = val == "0" || val == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  std::cout << "host " << perfbench::host_fingerprint() << "\n";
  perfbench::Result result;
  try {
    if (args.workload == "zoo_compile") {
      result = perfbench::run_zoo_compile(args);
    } else if (args.workload == "vgg_layer" || args.workload == "cascade_timer") {
      result = perfbench::run_serving(args);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.json(args.trace) << std::endl;
  return 0;
}
