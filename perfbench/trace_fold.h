// Traced-run support: folds the service's own span trees under the
// benchmark's spans and reduces them to per-layer self times.
//
// The benchmark opens its spans (bench.query, core.cloak_query,
// net.roundtrip or service.execute, server.refine, bench.tick, bench.flush)
// on the service's Tracer, so both sides share one clock. A service query
// is its own trace; the benchmark joins it under its call span through the
// `service_trace` attribute it copies from QueryResponse::trace_id.
#ifndef CLOAKDB_PERFBENCH_TRACE_FOLD_H_
#define CLOAKDB_PERFBENCH_TRACE_FOLD_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace cloakbench {

/// The layer a span's self time is charged to.
const char* LayerOfSpan(const std::string& name);

/// Collects completed spans while the run goes on (bounded memory: spans
/// are folded as they arrive and only the first `export_limit` are kept
/// for the exported file).
class TraceFolder {
 public:
  TraceFolder(cloakdb::obs::Tracer* tracer, size_t export_limit);
  ~TraceFolder();
  TraceFolder(const TraceFolder&) = delete;
  TraceFolder& operator=(const TraceFolder&) = delete;

  /// Starts / stops the background drain (Stop drains one last time).
  /// The tracer must outlive the folder.
  void Start();
  void Stop();
  /// Drains and folds whatever completed so far.
  void DrainNow();

  /// Per-span-name self time and duration samples (µs); root query spans
  /// are keyed by their own name (query.private_nn, ...).
  std::map<std::string, Sample> self_us;
  std::map<std::string, Sample> dur_us;
  /// index.probe durations keyed by the kind of the enclosing query.
  std::map<std::string, Sample> index_probe_us_by_kind;
  /// Per joined open-loop query: sum of layer self times along the
  /// blocking path, per-layer self times, and the unexplained residual.
  Sample stage_sum_us;
  Sample residual_us;
  Sample joined_latency_us;
  std::map<std::string, Sample> layer_self_us;
  uint64_t service_queries = 0;
  uint64_t index_probes = 0;
  std::vector<cloakdb::obs::SpanRecord> exported;

 private:
  /// Per-trace reduction: layer self sums plus join keys.
  struct TraceSummary {
    std::string root;
    std::map<std::string, double> layer_self;
    double root_dur = 0.0;
    double latency_us = 0.0;     ///< bench.query: from the scheduled send.
    uint64_t service_trace = 0;  ///< bench.query: joined service trace.
    bool open = false;           ///< bench.query: sent by the open loop.
    /// Self time of the call span (net.roundtrip / service.execute) before
    /// the joined service root is subtracted, and its layer.
    double call_self = 0.0;
    std::string call_layer;
  };

  void Fold(std::vector<cloakdb::obs::SpanRecord> spans);
  TraceSummary FoldTrace(const std::vector<cloakdb::obs::SpanRecord>& spans);
  void Join(const TraceSummary& bench, const TraceSummary& service);

  cloakdb::obs::Tracer* tracer_;
  size_t export_limit_;
  std::mutex mu_;  ///< Serializes folds (background drain vs DrainNow).
  std::unordered_map<uint64_t, TraceSummary> pending_service_;
  std::unordered_map<uint64_t, TraceSummary> pending_bench_;  ///< By service id.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace cloakbench

#endif  // CLOAKDB_PERFBENCH_TRACE_FOLD_H_
