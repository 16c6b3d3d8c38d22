// The three cloakbench workloads and the driver that runs one of them.
#ifndef CLOAKDB_PERFBENCH_WORKLOADS_H_
#define CLOAKDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cloakbench {

/// Command-line arguments of one run.
struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for data dirs, crash images, traces and results.
  std::string out_dir = ".bench_build/out";
  /// Tiny world and short phases, for the smoke test.
  bool tiny = false;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload and prints the human report plus, as the last stdout
/// line, the result JSON. Returns 0 when every answer check passed, 1 when
/// a check failed, 2 on a setup error.
int RunWorkload(const BenchArgs& args);

/// Feeds the checker deliberately broken inputs and confirms each one is
/// rejected; returns the number of broken inputs that slipped through.
int RunCheckerSelfTest(const std::string& out_dir);

}  // namespace cloakbench

#endif  // CLOAKDB_PERFBENCH_WORKLOADS_H_
