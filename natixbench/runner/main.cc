// natixbench_runner: runs one benchmark workload and writes the raw
// result (per-op latencies, statuses, set-up times, per-layer values) as
// JSON for run.py, plus the span file of a traced run.
//
//   natixbench_runner --workload xdoc-axes --seed 1 --seconds 10
//       --trace 0 --out raw.json [--spans spans.jsonl]
//
// Exit codes: 0 on a completed run (result mismatches are reported in
// the raw result), 2 on bad arguments, 3 on a set-up failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: natixbench_runner --workload "
               "xdoc-axes|dblp-values|serve-mix|compile-mix --seed N "
               "--seconds S --trace 0|1 --out FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  natixbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--out") == 0) {
      config.out_path = value;
    } else if (std::strcmp(flag, "--spans") == 0) {
      config.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.out_path.empty() || config.seconds <= 0 ||
      (config.trace && config.spans_path.empty())) {
    return Usage();
  }

  natixbench::RunResult result;
  if (config.workload == "xdoc-axes") {
    result = natixbench::RunXdocAxes(config);
  } else if (config.workload == "dblp-values") {
    result = natixbench::RunDblpValues(config);
  } else if (config.workload == "serve-mix") {
    result = natixbench::RunServeMix(config);
  } else if (config.workload == "compile-mix") {
    result = natixbench::RunCompileMix(config);
  } else {
    return Usage();
  }
  for (const std::string& note : result.mismatch_notes) {
    std::fprintf(stderr, "natixbench: wrong result: %s\n", note.c_str());
  }
  natixbench::WriteRawResult(config, result);
  return 0;
}
