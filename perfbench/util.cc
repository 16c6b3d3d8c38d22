// Statistics, process and JSON helpers of cloakbench.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "obs/metrics.h"

namespace cloakbench {

void Sample::Finish() { std::sort(values.begin(), values.end()); }

double Sample::Quantile(double q) const {
  if (values.empty()) return 0.0;
  // Nearest-rank on the sorted sample.
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  cloakdb::obs::AppendJsonEscaped(&out, s);
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace cloakbench
