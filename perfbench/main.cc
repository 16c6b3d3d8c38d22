// cloakbench: the CloakDB repository benchmark.
//
//   cloakbench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--tiny]
//   cloakbench --self-test [--out-dir DIR]
//
// Prints a human report and, as the last stdout line, one JSON object with
// the keys correct, attempted, failed and metrics. Exits 1 when an answer
// check fails, 2 on bad arguments or a setup error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

bool TakeValue(int argc, char** argv, int* i, const char* name,
               std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(argv[*i], name, len) != 0) return false;
  if (argv[*i][len] == '=') {
    *out = argv[*i] + len + 1;
    return true;
  }
  if (argv[*i][len] != '\0' || *i + 1 >= argc) return false;
  *out = argv[++*i];
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage: cloakbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--tiny]\n"
               "       cloakbench --self-test [--out-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  cloakbench::BenchArgs args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      args.tiny = true;
    } else if (TakeValue(argc, argv, &i, "--workload", &v)) {
      args.workload = v;
    } else if (TakeValue(argc, argv, &i, "--seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (TakeValue(argc, argv, &i, "--seconds", &v)) {
      args.seconds = std::atof(v.c_str());
    } else if (TakeValue(argc, argv, &i, "--trace", &v)) {
      args.trace = v == "1";
    } else if (TakeValue(argc, argv, &i, "--out-dir", &v)) {
      args.out_dir = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (self_test) {
    const int escaped = cloakbench::RunCheckerSelfTest(args.out_dir);
    return escaped == 0 ? 0 : 1;
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    Usage();
    return 2;
  }
  return cloakbench::RunWorkload(args);
}
