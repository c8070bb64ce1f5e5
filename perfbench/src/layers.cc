/// \file layers.cc
/// \brief Per-layer numbers of the traced run: layer times and self times
/// from the spans, counts from the cluster and block counters, and the
/// report that maps each layer metric to the end-to-end metric it should
/// move.

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {
namespace {

enum class Stage { kNone, kSample, kGather, kCompute };

Stage StageOf(const std::string& name) {
  if (name.rfind("sampling.", 0) == 0) return Stage::kSample;
  if (name == "block.gather") return Stage::kGather;
  if (name.rfind("algo.", 0) == 0 || name.rfind("nn.", 0) == 0) {
    return Stage::kCompute;
  }
  return Stage::kNone;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Part of [start, end) covered by the union of `children`.
int64_t Covered(int64_t start, int64_t end,
                std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = start;
  for (auto [s, e] : children) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

double PerOp(uint64_t total, size_t ops) {
  return ops == 0 ? 0 : static_cast<double>(total) / static_cast<double>(ops);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Layer metric -> the end-to-end metric it should move.
const char* MovesOf(const std::string& metric) {
  static const std::vector<std::pair<const char*, const char*>> kMoves = {
      {"gen.", "setup_s"},
      {"cluster.build_s", "setup_s"},
      {"storage.cache_install_s", "setup_s"},
      {"partition.", "cluster.remote_reads_per_op -> op_p50_ms"},
      {"sampling.traverse", "ops_per_s"},
      {"sampling.negative", "ops_per_s"},
      {"sampling.", "op_p50_ms"},
      {"cluster.update", "update_p50_ms, ops_per_s"},
      {"cluster.versions", "update_p50_ms, ops_per_s"},
      {"cluster.", "op_p50_ms, cpu_ms_per_op"},
      {"storage.", "op_p50_ms"},
      {"block.", "op_p50_ms, ops_per_s"},
      {"ops.", "block.gather_ms -> ops_per_s"},
      {"algo.forward", "ops_per_s, op_p50_ms"},
      {"algo.", "ops_per_s"},
      {"nn.", "ops_per_s"},
      {"pipeline.", "op_p50_ms, op_p90_ms"},
      {"serve.", "op_p90_ms, slo_ok_ratio"},
      {"bench.", "-"},
  };
  for (const auto& [prefix, moves] : kMoves) {
    if (metric.rfind(prefix, 0) == 0) return moves;
  }
  return "-";
}

}  // namespace

std::vector<Metric> PerLayer(const LayerInputs& in) {
  // Group spans by op; index children by parent id.
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> by_op;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : in.spans) {
    by_op[s.op].push_back(&s);
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }

  // Per op: summed time and self time of each layer, stage boundaries.
  std::map<std::string, std::vector<double>> layer_ms, self_ms;
  std::vector<double> op_self, handoff, queue_wait;
  int64_t busy[4] = {0, 0, 0, 0};
  for (const auto& [op, spans] : by_op) {
    std::map<std::string, int64_t> sum, self;
    const SpanRecord* root = nullptr;
    int64_t first_child = INT64_MAX;
    int64_t sample_end = INT64_MIN, gather_start = INT64_MAX;
    int64_t gather_end = INT64_MIN, compute_start = INT64_MAX;
    for (const SpanRecord* s : spans) {
      const std::string name = s->name;
      auto it = children.find(s->id);
      const int64_t own =
          s->end_ns - s->start_ns -
          (it == children.end() ? 0 : Covered(s->start_ns, s->end_ns, it->second));
      if (name == "op") {
        root = s;
        op_self.push_back(Ms(own));
        continue;
      }
      sum[name] += s->end_ns - s->start_ns;
      self[name] += own;
      if (s->parent != 0) first_child = std::min(first_child, s->start_ns);
      const Stage stage = StageOf(name);
      busy[static_cast<int>(stage)] += s->end_ns - s->start_ns;
      if (stage == Stage::kSample) sample_end = std::max(sample_end, s->end_ns);
      if (stage == Stage::kGather) {
        gather_start = std::min(gather_start, s->start_ns);
        gather_end = std::max(gather_end, s->end_ns);
      }
      if (stage == Stage::kCompute) {
        compute_start = std::min(compute_start, s->start_ns);
      }
    }
    for (const auto& [name, ns] : sum) layer_ms[name].push_back(Ms(ns));
    for (const auto& [name, ns] : self) self_ms[name].push_back(Ms(ns));
    if (root != nullptr && first_child != INT64_MAX) {
      queue_wait.push_back(Ms(first_child - root->start_ns));
    }
    if (root != nullptr && gather_start != INT64_MAX &&
        compute_start != INT64_MAX && sample_end != INT64_MIN) {
      handoff.push_back(Ms(std::max<int64_t>(0, gather_start - sample_end) +
                           std::max<int64_t>(0, compute_start - gather_end)));
    }
  }
  auto layer = [&](const char* name) { return Median(layer_ms[name]); };

  const Phase& ph = in.traced;
  const size_t ops = ph.ops.size();
  const int64_t wall = std::max<int64_t>(1, ph.end_ns - ph.start_ns);
  auto busy_share = [&](Stage s) {
    return static_cast<double>(busy[static_cast<int>(s)]) /
           static_cast<double>(wall);
  };
  uint64_t served_total = 0, served_max = 0;
  for (uint64_t s : ph.served) {
    served_total += s;
    served_max = std::max(served_max, s);
  }
  const UpdateStats& up = in.updates;

  std::vector<double> traced_lat, untraced_lat;
  for (const OpRecord& r : ph.ops) {
    if (r.done) traced_lat.push_back(Ms(r.end_ns - r.start_ns));
  }
  for (const OpRecord& r : in.untraced.ops) {
    if (r.done) untraced_lat.push_back(Ms(r.end_ns - r.start_ns));
  }
  const double untraced_p50 = Median(untraced_lat);

  std::vector<Metric> m = {
      {"gen.graph_s", in.setup.gen_s, "s"},
      {"cluster.build_s", in.setup.build_s, "s"},
      {"storage.cache_install_s", in.setup.cache_s, "s"},
      {"partition.edge_cut_fraction", in.edge_cut_fraction, "ratio"},
      {"sampling.traverse_ms", layer("sampling.traverse"), "ms"},
      {"sampling.negative_ms", layer("sampling.negative"), "ms"},
      {"sampling.block_ms", layer("sampling.block"), "ms"},
      {"sampling.slots_per_op", PerOp(ph.slots, ops), "count"},
      {"cluster.local_reads_per_op", PerOp(ph.comm.local_reads, ops), "count"},
      {"cluster.cache_hits_per_op", PerOp(ph.comm.cache_hits, ops), "count"},
      {"cluster.remote_reads_per_op", PerOp(ph.comm.remote_reads, ops),
       "count"},
      {"cluster.remote_batches_per_op", PerOp(ph.comm.remote_batches, ops),
       "count"},
      {"cluster.hot_worker_share", Share(served_max, served_total), "ratio"},
      {"storage.cache_hit_ratio",
       Share(ph.comm.cache_hits, ph.comm.cache_hits + ph.comm.remote_reads),
       "ratio"},
      {"cluster.update_ms", Median(up.latency_ms), "ms"},
      {"cluster.update_p90_ms", Percentile(up.latency_ms, 0.9), "ms"},
      {"cluster.update_applied_ratio",
       Share(up.applied, up.applied + up.skipped), "ratio"},
      {"cluster.versions_pruned_per_batch", PerOp(up.pruned, up.attempted),
       "count"},
      {"block.gather_ms", layer("block.gather"), "ms"},
      {"block.rows_per_op", PerOp(ph.rows, ops), "count"},
      {"block.dedup_ratio", Share(ph.slots, ph.rows), "ratio"},
      {"ops.row_cache_hit_ratio",
       Share(ph.row_hits, ph.row_hits + ph.row_misses), "ratio"},
      {"algo.forward_ms", layer("algo.forward"), "ms"},
      {"algo.backward_ms", layer("algo.backward"), "ms"},
      {"nn.apply_ms", layer("nn.apply"), "ms"},
      {"pipeline.sample_busy_share", busy_share(Stage::kSample), "ratio"},
      {"pipeline.gather_busy_share", busy_share(Stage::kGather), "ratio"},
      {"pipeline.compute_busy_share", busy_share(Stage::kCompute), "ratio"},
      {"pipeline.handoff_wait_ms", Median(handoff), "ms"},
      {"serve.queue_wait_p90_ms", Percentile(queue_wait, 0.9), "ms"},
      {"bench.op_self_ms", Median(op_self), "ms"},
      {"bench.trace_overhead_ratio",
       untraced_p50 > 0 ? Median(traced_lat) / untraced_p50 : 0, "ratio"},
  };

  // The report: every layer metric with the end-to-end metric it should
  // move, then each layer's time and self time per op.
  std::printf("per-layer report (traced phase: %zu ops, %zu spans)\n", ops,
              in.spans.size());
  std::printf("  %-34s %14s %-6s  moves\n", "metric", "value", "unit");
  for (const Metric& x : m) {
    std::printf("  %-34s %14.6f %-6s  %s\n", x.name.c_str(), x.value, x.unit,
                MovesOf(x.name));
  }
  const double op_p50 = Median(traced_lat);
  std::printf("  %-20s %12s %12s %12s\n", "layer span", "ms/op p50",
              "self ms p50", "share of op");
  for (const auto& [name, values] : layer_ms) {
    const double med = Median(values);
    std::printf("  %-20s %12.4f %12.4f %12.3f\n", name.c_str(), med,
                Median(self_ms[name]), op_p50 > 0 ? med / op_p50 : 0);
  }
  std::printf("  %-20s %12.4f %12.4f %12.3f\n", "op (self)", op_p50,
              Median(op_self), op_p50 > 0 ? Median(op_self) / op_p50 : 0);
  return m;
}

}  // namespace perfbench
