#include "trace_fold.h"

#include <algorithm>
#include <chrono>

namespace cloakbench {

namespace {

using cloakdb::obs::SpanRecord;

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double AttrOf(const SpanRecord& span, const char* key) {
  for (uint8_t i = 0; i < span.num_attrs; ++i) {
    if (std::string(span.attrs[i].key) == key) return span.attrs[i].value;
  }
  return 0.0;
}

bool IsCallSpan(const std::string& name) {
  return name == "net.roundtrip" || name == "service.execute";
}

}  // namespace

const char* LayerOfSpan(const std::string& name) {
  if (StartsWith(name, "bench.")) return "bench";
  if (name == "core.cloak_query" || name == "cloak" || name == "cloak.batch")
    return "core";
  if (name == "net.roundtrip") return "net";
  if (name == "server.refine") return "server";
  if (StartsWith(name, "index.")) return "index";
  return "service";
}

TraceFolder::TraceFolder(cloakdb::obs::Tracer* tracer, size_t export_limit)
    : tracer_(tracer), export_limit_(export_limit) {}

TraceFolder::~TraceFolder() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void TraceFolder::Start() {
  stop_ = false;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      DrainNow();
    }
  });
}

void TraceFolder::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  DrainNow();
}

void TraceFolder::DrainNow() {
  if (tracer_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Fold(tracer_->TakeCompletedSpans());
}

void TraceFolder::Fold(std::vector<SpanRecord> spans) {
  for (const auto& span : spans) {
    if (exported.size() >= export_limit_) break;
    exported.push_back(span);
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.trace_id < b.trace_id;
            });
  for (size_t i = 0; i < spans.size();) {
    size_t j = i;
    while (j < spans.size() && spans[j].trace_id == spans[i].trace_id) ++j;
    std::vector<SpanRecord> trace(spans.begin() + static_cast<long>(i),
                                  spans.begin() + static_cast<long>(j));
    i = j;
    TraceSummary summary = FoldTrace(trace);
    if (summary.root == "bench.query") {
      auto it = pending_service_.find(summary.service_trace);
      if (it != pending_service_.end()) {
        Join(summary, it->second);
        pending_service_.erase(it);
      } else {
        pending_bench_[summary.service_trace] = std::move(summary);
      }
    } else if (StartsWith(summary.root, "query.")) {
      const uint64_t id = trace.front().trace_id;
      auto it = pending_bench_.find(id);
      if (it != pending_bench_.end()) {
        Join(it->second, summary);
        pending_bench_.erase(it);
      } else {
        pending_service_[id] = std::move(summary);
      }
    }
  }
  // Service traces nobody joins (in-process standing registrations, public
  // calls made outside bench.query) must not pile up.
  if (pending_service_.size() > 100000) pending_service_.clear();
}

TraceFolder::TraceSummary TraceFolder::FoldTrace(
    const std::vector<SpanRecord>& spans) {
  TraceSummary summary;
  std::string kind;
  for (const auto& span : spans) {
    if (span.parent_id == 0) {
      summary.root = span.name;
      summary.root_dur = span.dur_us;
      kind = span.name;
    }
  }
  // Self time by a sweep over the trace: each instant belongs to the
  // deepest span active at it (the latest started on a tie), so siblings
  // that overlap -- a batch leader's batch.execute beside its own
  // batch.adopt -- are not counted twice and self times add up to the
  // root's duration.
  const bool sweep = summary.root == "bench.query" ||
                     StartsWith(summary.root, "query.");
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.span_id] = &span;
  std::unordered_map<uint64_t, double> self;
  if (sweep) {
    std::vector<std::pair<const SpanRecord*, int>> active;
    std::vector<double> points;
    for (const auto& span : spans) {
      int depth = 0;
      for (auto p = by_id.find(span.parent_id); p != by_id.end();
           p = by_id.find(p->second->parent_id)) {
        ++depth;
      }
      active.emplace_back(&span, depth);
      points.push_back(span.start_us);
      points.push_back(span.start_us + span.dur_us);
    }
    std::sort(points.begin(), points.end());
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      const double lo = points[i], hi = points[i + 1];
      if (hi <= lo) continue;
      const SpanRecord* owner = nullptr;
      int owner_depth = -1;
      for (const auto& [span, depth] : active) {
        if (span->start_us > lo || span->start_us + span->dur_us < hi) continue;
        if (depth > owner_depth ||
            (depth == owner_depth && span->start_us > owner->start_us)) {
          owner = span;
          owner_depth = depth;
        }
      }
      if (owner != nullptr) self[owner->span_id] += hi - lo;
    }
  }
  for (const auto& span : spans) {
    const std::string name = span.name;
    dur_us[name].Add(span.dur_us);
    if (name == "index.probe") {
      ++index_probes;
      index_probe_us_by_kind[kind].Add(span.dur_us);
    }
    if (!sweep) continue;
    const double own = self[span.span_id];
    self_us[name].Add(own);
    if (name == "bench.query") {
      summary.latency_us = AttrOf(span, "latency_us");
      summary.open = AttrOf(span, "open") > 0.0;
    }
    if (IsCallSpan(name)) {
      summary.service_trace =
          static_cast<uint64_t>(AttrOf(span, "service_trace"));
      summary.call_self = own;
      summary.call_layer = LayerOfSpan(name);
      continue;
    }
    summary.layer_self[LayerOfSpan(name)] += own;
  }
  if (StartsWith(summary.root, "query.")) ++service_queries;
  return summary;
}

void TraceFolder::Join(const TraceSummary& bench,
                       const TraceSummary& service) {
  if (!bench.open) return;
  std::map<std::string, double> layers = bench.layer_self;
  // The service root ran inside the call span, on another thread for the
  // wire: what the call span does not spend in the service is its own.
  layers[bench.call_layer] += std::max(0.0, bench.call_self - service.root_dur);
  for (const auto& [layer, self] : service.layer_self) layers[layer] += self;
  double stage_sum = 0.0;
  for (const auto& [layer, self] : layers) {
    layer_self_us[layer].Add(self);
    if (layer != "bench") stage_sum += self;
  }
  stage_sum_us.Add(stage_sum);
  joined_latency_us.Add(bench.latency_us);
  residual_us.Add(bench.latency_us - stage_sum);
}

}  // namespace cloakbench
