/// \file common.cc
/// \brief Arguments, clocks, statistics, tracing, checks, the shared
/// cluster set-up and the update stream of the wall-clock benchmark.

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/random.h"
#include "gen/taobao.h"
#include "partition/partitioner.h"
#include "perfbench.h"

namespace perfbench {

using aligraph::EdgeUpdate;
using aligraph::Mix64;

// ---------------------------------------------------------------------------
// Arguments

namespace {

bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseCount(const char* text, uint64_t* out, bool allow_zero) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || (!allow_zero && v == 0)) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
      ok = args->workload == "train" || args->workload == "serve" ||
           args->workload == "serve_update";
    } else if (flag == "--seed") {
      ok = ParseCount(value, &args->seed, /*allow_zero=*/true);
    } else if (flag == "--seconds") {
      ok = ParsePositive(value, &args->seconds);
    } else if (flag == "--trace") {
      ok = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      ok = ParsePositive(value, &args->scale);
    } else if (flag == "--rate") {
      ok = ParsePositive(value, &args->rate);
    } else if (flag == "--max-ops") {
      ok = ParseCount(value, &args->max_ops, /*allow_zero=*/false);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload train|serve|serve_update is required";
    return false;
  }
  // Taobao-small needs scale >= 0.01; seconds beyond an hour are a typo.
  if (args->scale < 0.01 || args->seconds > 3600) {
    *error = "--scale must be >= 0.01 and --seconds <= 3600";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Clocks

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SpinUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

void Fnv::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

// ---------------------------------------------------------------------------
// Tracing

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t id, uint64_t parent, uint64_t op) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, id, parent, op});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

// ---------------------------------------------------------------------------
// Checks

void Failures::Add(const std::string& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  ++causes_[cause];
}

std::map<std::string, uint64_t> Failures::by_cause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return causes_;
}

bool RowsUnitNorm(const aligraph::nn::Matrix& m) {
  for (size_t r = 0; r < m.rows(); ++r) {
    double sq = 0;
    for (float v : m.Row(r)) sq += static_cast<double>(v) * v;
    if (std::abs(std::sqrt(sq) - 1.0) > 1e-4) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The simulated cluster

Seeds::Seeds(uint64_t seed)
    : graph(Mix64(seed ^ 0x67726170680aull)),
      load(Mix64(seed ^ 0x6c6f61640aull)),
      sampler(Mix64(seed ^ 0x73616d706c650aull)),
      negative(Mix64(seed ^ 0x6e65670aull)),
      model(Mix64(seed ^ 0x6d6f64656c0aull)),
      update(Mix64(seed ^ 0x7570646174650aull)) {}

namespace {

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace

World BuildWorld(const Args& args, const Seeds& seeds, SetupTimes* times) {
  World world;
  aligraph::gen::TaobaoConfig config =
      aligraph::gen::TaobaoSmallConfig(args.scale);
  config.seed = seeds.graph;
  int64_t t = NowNs();
  auto graph = aligraph::gen::Taobao(config);
  ALIGRAPH_CHECK(graph.ok()) << graph.status().ToString();
  world.graph = std::make_unique<AttributedGraph>(std::move(graph).value());
  times->gen_s = SecondsSince(t);

  t = NowNs();
  aligraph::ClusterBuildReport report;
  auto cluster = Cluster::Build(*world.graph, aligraph::EdgeCutPartitioner(),
                                kWorkers, &report);
  ALIGRAPH_CHECK(cluster.ok()) << cluster.status().ToString();
  world.cluster = std::make_unique<Cluster>(std::move(cluster).value());
  times->build_s = SecondsSince(t);
  world.edge_cut_fraction = report.partition_stats.edge_cut_fraction;

  t = NowNs();
  world.cluster->InstallTopImportanceCache(/*k=*/1, kCacheFraction);
  times->cache_s = SecondsSince(t);

  auto click = world.graph->schema().EdgeTypeId("click");
  ALIGRAPH_CHECK(click.ok()) << click.status().ToString();
  world.click = click.value();
  return world;
}

uint64_t GraphDigest(const AttributedGraph& graph) {
  Fnv fnv;
  fnv.AddValue(graph.num_vertices());
  fnv.AddValue(graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const auto& nb : graph.OutNeighbors(v)) fnv.AddValue(nb.dst);
  }
  return fnv.value();
}

// ---------------------------------------------------------------------------
// Updates

namespace {

aligraph::serve::LoadConfig HotSourceConfig(uint64_t seed) {
  aligraph::serve::LoadConfig config;
  config.mode = aligraph::serve::LoadConfig::Mode::kClosed;
  config.roots_per_request = Updater::kBatchEdges;
  config.zipf_exponent = 0.9;
  config.seed = seed;
  return config;
}

}  // namespace

Updater::Updater(World& world, uint64_t seed)
    : world_(world), seed_(seed),
      sources_(*world.graph, HotSourceConfig(seed)) {}

std::vector<EdgeUpdate> Updater::Batch(uint64_t j) const {
  const uint64_t pair = j / 2;
  const std::vector<VertexId> srcs = sources_.RootsFor(pair);
  const uint64_t n = world_.graph->num_vertices();
  std::vector<EdgeUpdate> batch(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    EdgeUpdate& u = batch[i];
    u.kind = j % 2 == 0 ? EdgeUpdate::Kind::kInsert : EdgeUpdate::Kind::kRemove;
    u.src = srcs[i];
    u.dst = static_cast<VertexId>(Mix64(seed_ ^ Mix64(pair * 1024 + i)) % n);
    u.type = world_.click;
  }
  return batch;
}

Updater::Cost Updater::Step(Tracer* tracer, UpdateStats* stats,
                            Failures* failures) {
  const uint64_t j = next_++;
  const std::vector<EdgeUpdate> batch = Batch(j);
  Cluster& cluster = *world_.cluster;
  aligraph::UpdateReport report;
  aligraph::Status st;
  Cost cost;
  {
    ScopedSpan span(tracer, "cluster.update", kUpdateOpBase + j);
    const int64_t cpu = CpuNs();
    const int64_t t = NowNs();
    st = cluster.ApplyUpdateBatch(batch, &report);
    cost.wall_ns = NowNs() - t;
    cost.cpu_ns = CpuNs() - cpu;
  }
  stats->latency_ms.push_back(static_cast<double>(cost.wall_ns) * 1e-6);
  ++stats->attempted;
  stats->applied += report.applied;
  stats->skipped += report.skipped;
  stats->pruned += report.versions_pruned;
  bool ok = st.ok();
  if (!ok) failures->Add("update.status");
  if (report.applied + report.skipped != batch.size()) {
    failures->Add("update.applied_plus_skipped");
    ok = false;
  }
  if (j % 2 == 0) {
    // Inserted edges must be visible at the batch's epoch. The check's
    // reads are subtracted from the served-read counters of the phase.
    const std::vector<uint64_t> before = cluster.ServedReadsSnapshot();
    CommStats check_stats;
    bool visible = true;
    for (const EdgeUpdate& u : batch) {
      const auto nbs = cluster.GetNeighbors(kReader, u.src, u.type,
                                            &check_stats, report.epoch);
      visible = visible &&
                std::any_of(nbs.begin(), nbs.end(), [&u](const auto& nb) {
                  return nb.dst == u.dst;
                });
    }
    const std::vector<uint64_t> after = cluster.ServedReadsSnapshot();
    stats->check_served.resize(after.size(), 0);
    for (size_t w = 0; w < after.size(); ++w) {
      stats->check_served[w] += after[w] - before[w];
    }
    if (!visible) {
      failures->Add("update.insert_not_visible");
      ok = false;
    }
  }
  if (!ok) ++stats->failed;
  return cost;
}

// ---------------------------------------------------------------------------
// Counters

CounterMark Mark(const Cluster& cluster, const CommStats& stats) {
  return {stats.snapshot(), cluster.ServedReadsSnapshot()};
}

void CloseCounters(const CounterMark& begin, const CounterMark& end,
                   Phase* phase) {
  phase->comm = end.comm.Delta(begin.comm);
  phase->served.assign(end.served.size(), 0);
  const std::vector<uint64_t>& check = phase->updates.check_served;
  for (size_t w = 0; w < end.served.size(); ++w) {
    const uint64_t excluded = w < check.size() ? check[w] : 0;
    phase->served[w] = end.served[w] - begin.served[w] - excluded;
  }
}

}  // namespace perfbench
