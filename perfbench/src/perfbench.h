/// \file perfbench.h
/// \brief Shared pieces of the wall-clock benchmark: arguments, clocks, the
/// in-memory span recorder, per-op records, the simulated cluster every
/// workload runs on, and the workload interface.
///
/// The benchmark drives only public library calls and times each layer by
/// timing its own calls into that layer. The library's metrics registry and
/// tracer stay detached in every run, because attaching them switches on
/// in-library instrumentation that changes what is measured.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "serve/load_generator.h"

namespace perfbench {

using aligraph::AttributedGraph;
using aligraph::Cluster;
using aligraph::CommStats;
using aligraph::EdgeType;
using aligraph::VertexId;

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured time per run
  bool trace = false;   ///< per-layer run instead of the end-to-end run
  double scale = 10;    ///< Taobao-small scale factor
  double rate = 0;      ///< serve: open-loop rate in requests/s (0: default)
  uint64_t max_ops = 0;  ///< cap on measured ops per phase (0: no cap)
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Parses argv strictly: unknown flags, missing or malformed values and
/// non-positive seconds, scale, rate or op counts are rejected with a
/// message in *error.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

// ---------------------------------------------------------------------------
// Clocks

int64_t NowNs();  ///< steady clock
int64_t CpuNs();  ///< CPU time of the whole process, all threads

/// Spins (no sleep, no yield) until the steady clock reaches `deadline_ns`.
/// On a KVM guest, sleeping until shortly before the deadline and spinning
/// only the rest doubled `serve` latency even at half the rate: an idle
/// vCPU is slow to wake the executor threads.
void SpinUntil(int64_t deadline_ns);

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// 64-bit FNV-1a, used for the input digest.
class Fnv {
 public:
  void Add(const void* data, size_t bytes);
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own files, kept in memory and
// written out when the run ends. A span wraps one call into one layer.

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root span
  uint64_t op = 0;      ///< the op (step / request / update) it belongs to
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// A fresh span id, or 0 while disabled.
  uint64_t NewId() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Records a finished span; a no-op while disabled.
  void Record(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
              uint64_t parent, uint64_t op);
  std::vector<SpanRecord> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Times the enclosing scope as one span. Costs two clock reads when the
/// tracer is disabled, so the untraced run keeps the same shape.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op,
             uint64_t parent = 0)
      : tracer_(tracer), name_(name), op_(op), parent_(parent),
        id_(tracer->NewId()), start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      tracer_->Record(name_, start_ns_, NowNs(), id_, parent_, op_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t op_;
  uint64_t parent_;
  uint64_t id_;
  int64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Per-op records and output checks

/// One measured op: a training step or a read request.
struct OpRecord {
  int64_t start_ns = 0;  ///< issue time; the due time in an open loop
  int64_t end_ns = 0;
  /// Wall time the op is charged for throughput: its own duration in a
  /// closed loop (plus the update it triggers), the gap since the previous
  /// completion in an open loop.
  int64_t busy_ns = 0;
  int64_t cpu_ns = 0;  ///< process CPU time charged to the op
  bool done = false;
  bool ok = true;  ///< every output check passed
};

/// Output-check failures by cause. Thread-safe.
class Failures {
 public:
  void Add(const std::string& cause);
  std::map<std::string, uint64_t> by_cause() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> causes_;  // guarded by mu_
};

/// True when every row of `m` has unit L2 norm.
bool RowsUnitNorm(const aligraph::nn::Matrix& m);

// ---------------------------------------------------------------------------
// The simulated cluster every workload runs on

/// Fixed setting shared by all workloads: Taobao-small on 4 workers with
/// an edge-cut partition and a top-importance cache over 20% of vertices;
/// reads are issued from worker 0 with fan-outs [10, 5] and dimension 32.
inline constexpr uint32_t kWorkers = 4;
inline constexpr double kCacheFraction = 0.2;
inline constexpr aligraph::WorkerId kReader = 0;
inline constexpr uint32_t kFan1 = 10;
inline constexpr uint32_t kFan2 = 5;
inline constexpr size_t kDim = 32;

/// Seeds of every generated input, all derived from --seed.
struct Seeds {
  explicit Seeds(uint64_t seed);
  uint64_t graph, load, sampler, negative, model, update;
};

struct World {
  std::unique_ptr<AttributedGraph> graph;
  std::unique_ptr<Cluster> cluster;
  double edge_cut_fraction = 0;
  EdgeType click = 0;  ///< edge type of training positives and updates
};

struct SetupTimes {
  double gen_s = 0, build_s = 0, cache_s = 0, workload_s = 0;
  double total() const { return gen_s + build_s + cache_s + workload_s; }
};

/// Generates the graph and builds the cluster with its cache; fills the
/// matching fields of *times.
World BuildWorld(const Args& args, const Seeds& seeds, SetupTimes* times);

/// Digest of the graph: sizes plus a hash over every adjacency list.
uint64_t GraphDigest(const AttributedGraph& graph);

// ---------------------------------------------------------------------------
// Updates: one batch of 256 edges on Zipf-hot sources; even batches insert,
// odd batches remove the edges the previous batch inserted, so adjacency
// sizes stay bounded. Batch j is a pure function of (seed, j).

struct UpdateStats {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< batches with a failed check
  uint64_t applied = 0;
  uint64_t skipped = 0;
  uint64_t pruned = 0;
  /// Reads the visibility checks served, kept out of the op counters.
  std::vector<uint64_t> check_served;
};

class Updater {
 public:
  static constexpr size_t kBatchEdges = 256;
  Updater(World& world, uint64_t seed);
  /// The edges batch j inserts (j even) or removes (j odd).
  std::vector<aligraph::EdgeUpdate> Batch(uint64_t j) const;
  /// Applies the next batch, timed as one `cluster.update` span, then
  /// checks it: applied + skipped must equal the batch size, and after an
  /// insert every inserted edge must be visible at the new epoch. Returns
  /// the wall and process CPU time of the apply alone, checks excluded.
  struct Cost {
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
  };
  Cost Step(Tracer* tracer, UpdateStats* stats, Failures* failures);

 private:
  World& world_;
  uint64_t seed_;
  aligraph::serve::LoadGenerator sources_;  // Zipf-hot source draws
  uint64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads

/// Counters of one measured phase, beside its op records.
struct Phase {
  std::vector<OpRecord> ops;
  int64_t start_ns = 0, end_ns = 0;
  CommStats::Snapshot comm;           ///< reads of the measured ops
  std::vector<uint64_t> served;       ///< per-worker served reads
  uint64_t slots = 0, rows = 0;       ///< block slots / unique rows, summed
  uint64_t row_hits = 0, row_misses = 0;  ///< feature-row cache
  UpdateStats updates;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Fixed latency limit of one op, for slo_ok_ratio.
  virtual double slo_ms() const = 0;
  /// Runs ops for `seconds` (or `max_ops` ops when non-zero) and returns
  /// their records. Records spans while the tracer is enabled.
  virtual Phase Run(double seconds, uint64_t max_ops, Tracer* tracer,
                    Failures* failures) = 0;
  /// Checks that need the run to be over (e.g. replays); counts mismatches
  /// into `failures` and clears the ok flag of the ops concerned.
  virtual void Verify(Phase* phase, Failures* failures) {}
  /// Hash of the workload's generated inputs (first ops and updates).
  virtual uint64_t InputDigest() const = 0;
  /// True when the workload applies updates itself; otherwise the update
  /// probe runs after the measured phases.
  virtual bool updates_inline() const { return false; }
};

std::unique_ptr<Workload> MakeTrain(World& world, const Seeds& seeds);
/// `requests`: length of the open-loop request stream, covering every
/// phase of the run.
std::unique_ptr<Workload> MakeServe(World& world, const Seeds& seeds,
                                    double rate, uint64_t requests);
std::unique_ptr<Workload> MakeServeUpdate(World& world, const Seeds& seeds,
                                          Updater* updater);

/// Op ids of update batches in spans, apart from step and request ids.
inline constexpr uint64_t kUpdateOpBase = uint64_t{1} << 62;

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

struct LayerInputs {
  std::vector<SpanRecord> spans;  ///< spans of the traced phase and probe
  Phase traced;                   ///< the traced phase
  Phase untraced;                 ///< the untraced phase before it
  UpdateStats updates;            ///< updates of the traced phase or probe
  SetupTimes setup;               ///< median time of each set-up stage
  double edge_cut_fraction = 0;
};

/// Computes every per-layer metric and prints the per-layer report.
std::vector<Metric> PerLayer(const LayerInputs& in);

/// Reads CommStats and served-read counters at phase boundaries.
struct CounterMark {
  CommStats::Snapshot comm;
  std::vector<uint64_t> served;
};
CounterMark Mark(const Cluster& cluster, const CommStats& stats);
/// Fills phase->comm / phase->served with `end` minus `begin`, minus the
/// reads the update checks served.
void CloseCounters(const CounterMark& begin, const CounterMark& end,
                   Phase* phase);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
