// perfbench: the end-to-end benchmark of the datareuse exploration
// service. Usually started through perfbench/run.py, which builds it.
//
//   perfbench --workload cold_explore|warm_hits|routed_mix --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Human-readable progress goes to stderr; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every reply matched its reference and the workload's
// integrity checks held.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::string names;
  for (const std::string& n : perfbench::workloadNames())
    names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "usage: perfbench --workload %s --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               names.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.workdir = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::atof(value.c_str());
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--workdir") cfg.workdir = value;
    else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || cfg.workload.empty() || !(cfg.seconds > 0)) {
    usage();
    return 2;
  }

  perfbench::RunResult res;
  try {
    res = perfbench::runWorkload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& p : res.problems)
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    std::fprintf(stderr, "perfbench: %-34s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    // A non-finite value (every request failed) is reported as the
    // largest finite double so the line stays valid JSON.
    const double v = std::isfinite(m.value) ? m.value : 1.7976931348623157e308;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
