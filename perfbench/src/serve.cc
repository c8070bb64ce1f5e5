/// \file serve.cc
/// \brief The two k-hop serving workloads. Each request embeds 32
/// Zipf(0.9)-hot roots drawn by serve::LoadGenerator: a private sampler
/// seeded by the request id draws a [10, 5] block through the cluster, the
/// block's features are gathered without a row cache, and a forward-only
/// two-layer GraphSAGE pass is followed by L2NormalizeRows.
///
/// `serve` is an open loop: Poisson arrivals at a fixed rate go through
/// BlockPipeline::RunStages at depth 2, and latency is timed from each
/// request's due time. `serve_update` is a closed loop with one client that
/// runs the same requests without the pipeline and applies one update
/// batch after every 4th read.

#include <any>
#include <cstring>
#include <utility>

#include "algo/gnn.h"
#include "block/feature_source.h"
#include "nn/matrix.h"
#include "perfbench.h"
#include "pipeline/block_pipeline.h"
#include "sampling/sampler.h"

namespace perfbench {
namespace {

using aligraph::NeighborhoodSampler;
using aligraph::serve::LoadConfig;
using aligraph::serve::LoadGenerator;
namespace block = aligraph::block;
namespace nn = aligraph::nn;

constexpr size_t kRootsPerRequest = 32;
constexpr uint64_t kReplayEvery = 8;  // requests replayed sequentially
constexpr uint64_t kReadsPerUpdate = 4;
constexpr uint64_t kDigestOps = 64;
/// An open-loop request this late is dropped rather than served, so an
/// overloaded run still ends; a healthy run never drops.
constexpr int64_t kGiveUpNs = 1000000000;

LoadConfig RequestStream(uint64_t seed, LoadConfig::Mode mode,
                         uint64_t requests, double rate) {
  LoadConfig config;
  config.mode = mode;
  config.num_requests = requests;
  config.roots_per_request = kRootsPerRequest;
  config.zipf_exponent = 0.9;
  config.arrival_rate_rps = rate;
  config.seed = seed;
  return config;
}

/// The served model: fixed weights, forward only.
class ServedModel {
 public:
  explicit ServedModel(uint64_t seed)
      : rng_(seed),
        layer1_(kDim, kDim, /*maxpool=*/false, rng_),
        layer2_(kDim, kDim, /*maxpool=*/false, rng_, /*relu=*/false) {}

  nn::Matrix Embed(const nn::Matrix& x, const block::SampledBlock& blk) {
    aligraph::algo::SageLayer::Cache c_roots, c_h1, c_top;
    const nn::Matrix h1_roots = layer1_.ForwardBlock(x, blk.hops()[0], &c_roots);
    const nn::Matrix h1_h1 = layer1_.ForwardBlock(x, blk.hops()[1], &c_h1);
    nn::Matrix h2 = layer2_.Forward(h1_roots, h1_h1, kFan1, &c_top);
    nn::L2NormalizeRows(h2);
    return h2;
  }

 private:
  aligraph::Rng rng_;
  aligraph::algo::SageLayer layer1_;
  aligraph::algo::SageLayer layer2_;
};

block::SampledBlock SampleRequest(const LoadGenerator& gen, uint64_t id,
                                  aligraph::NeighborSource& source) {
  NeighborhoodSampler hood(aligraph::NeighborStrategy::kUniform,
                           gen.RequestSeed(id));
  const std::vector<uint32_t> fans{kFan1, kFan2};
  return hood.SampleBlock(source, gen.RootsFor(id),
                          NeighborhoodSampler::kAllEdgeTypes, fans);
}

uint64_t RootsDigest(const LoadGenerator& gen, bool with_arrivals) {
  Fnv fnv;
  for (uint64_t id = 0; id < kDigestOps; ++id) {
    const std::vector<VertexId> roots = gen.RootsFor(id);
    fnv.Add(roots.data(), roots.size() * sizeof(VertexId));
    fnv.AddValue(gen.RequestSeed(id));
    if (with_arrivals) fnv.AddValue(gen.OpenArrivalUs(id));
  }
  return fnv.value();
}

// ---------------------------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  ServeWorkload(World& world, const Seeds& seeds, double rate,
                uint64_t requests)
      : world_(world),
        gen_(*world.graph, RequestStream(seeds.load, LoadConfig::Mode::kOpen,
                                         requests, rate)),
        model_(seeds.model),
        source_(*world.cluster, kReader, &stats_),
        features_(*world.cluster, kReader, kDim, &stats_),
        pipeline_(aligraph::pipeline::PipelineConfig{}) {}

  double slo_ms() const override { return 10.0; }

  Phase Run(double seconds, uint64_t max_ops, Tracer* tracer,
            Failures* failures) override {
    // The requests due within `seconds` of the first one.
    const uint64_t first = next_id_;
    const double base_us = gen_.OpenArrivalUs(first);
    uint64_t n = 0;
    while (first + n < gen_.config().num_requests &&
           (max_ops == 0 || n < max_ops) &&
           gen_.OpenArrivalUs(first + n) - base_us < seconds * 1e6) {
      ++n;
    }
    next_id_ = first + n;

    Phase phase;
    phase.ops.resize(n);
    replay_.clear();
    std::vector<uint64_t> accepted(n);  // batch index of the k-th accepted
    std::vector<uint64_t> roots(n, 0);  // root span id per batch
    size_t sampled = 0, gathered = 0;   // lane-local cursors into accepted
    const CounterMark begin = Mark(*world_.cluster, stats_);
    phase.start_ns = NowNs() + 1000000;
    int64_t last_end = phase.start_ns;
    int64_t last_cpu = CpuNs();
    auto due = [&](size_t b) {
      return phase.start_ns +
             static_cast<int64_t>((gen_.OpenArrivalUs(first + b) - base_us) *
                                  1e3);
    };

    const aligraph::Status st = pipeline_.RunStages(
        n,
        /*sample=*/
        [&](size_t b, block::SampledBlock* blk, std::any*) {
          // The sample lane is the load generator: it spins until the
          // request is due, so a stall delays every later request.
          const int64_t due_ns = due(b);
          SpinUntil(due_ns);
          phase.ops[b].start_ns = due_ns;
          if (NowNs() - due_ns > kGiveUpNs) return false;
          roots[b] = tracer->NewId();
          {
            ScopedSpan span(tracer, "sampling.block", first + b, roots[b]);
            *blk = SampleRequest(gen_, first + b, source_);
          }
          accepted[sampled++] = b;
          return true;
        },
        /*gather=*/
        [&](const block::SampledBlock& blk) {
          const size_t b = accepted[gathered++];
          ScopedSpan span(tracer, "block.gather", first + b, roots[b]);
          return block::GatherBlockFeatures(blk, features_,
                                            /*row_cache=*/nullptr);
        },
        /*compute=*/
        [&](size_t b, const block::SampledBlock& blk, const nn::Matrix& x,
            std::any&) {
          nn::Matrix h2;
          {
            ScopedSpan span(tracer, "algo.forward", first + b, roots[b]);
            h2 = model_.Embed(x, blk);
          }
          OpRecord& rec = phase.ops[b];
          rec.end_ns = NowNs();
          const int64_t cpu = CpuNs();
          rec.cpu_ns = cpu - last_cpu;
          rec.busy_ns = rec.end_ns - last_end;
          last_cpu = cpu;
          last_end = rec.end_ns;
          rec.done = true;
          tracer->Record("op", rec.start_ns, rec.end_ns, roots[b], 0, first + b);
          phase.slots += blk.total_slots();
          phase.rows += blk.num_vertices();
          if (!RowsUnitNorm(h2)) {
            failures->Add("serve.row_not_unit_norm");
            rec.ok = false;
          }
          if ((first + b) % kReplayEvery == 0) {
            replay_.emplace_back(b, std::move(h2));
          }
        });
    phase.end_ns = NowNs();
    CloseCounters(begin, Mark(*world_.cluster, stats_), &phase);
    if (!st.ok()) failures->Add("serve.pipeline_status");
    for (size_t b = 0; b < n; ++b) {
      if (!phase.ops[b].done) {
        failures->Add("serve.dropped_late");
        phase.ops[b].ok = false;
      }
    }
    first_id_ = first;
    return phase;
  }

  /// Replays every kReplayEvery-th request sequentially and demands
  /// bit-equal embeddings.
  void Verify(Phase* phase, Failures* failures) override {
    CommStats replay_stats;
    aligraph::DistributedNeighborSource source(*world_.cluster, kReader,
                                               &replay_stats);
    block::ClusterFeatureSource features(*world_.cluster, kReader, kDim,
                                         &replay_stats);
    for (const auto& [b, embedding] : replay_) {
      const block::SampledBlock blk = SampleRequest(gen_, first_id_ + b, source);
      const nn::Matrix x =
          block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
      const nn::Matrix again = model_.Embed(x, blk);
      const bool equal =
          again.rows() == embedding.rows() && again.cols() == embedding.cols() &&
          std::memcmp(again.data(), embedding.data(),
                      again.size() * sizeof(float)) == 0;
      if (!equal) {
        failures->Add("serve.replay_mismatch");
        phase->ops[b].ok = false;
      }
    }
    replay_.clear();
  }

  uint64_t InputDigest() const override {
    return RootsDigest(gen_, /*with_arrivals=*/true);
  }

 private:
  World& world_;
  LoadGenerator gen_;
  ServedModel model_;
  CommStats stats_;
  aligraph::DistributedNeighborSource source_;  // sample lane only
  block::ClusterFeatureSource features_;         // gather lane only
  aligraph::pipeline::BlockPipeline pipeline_;
  uint64_t next_id_ = 0;
  uint64_t first_id_ = 0;  // first request id of the last phase
  std::vector<std::pair<size_t, nn::Matrix>> replay_;  // (batch, embedding)
};

// ---------------------------------------------------------------------------

class ServeUpdateWorkload : public Workload {
 public:
  ServeUpdateWorkload(World& world, const Seeds& seeds, Updater* updater)
      : world_(world),
        gen_(*world.graph,
             RequestStream(seeds.load, LoadConfig::Mode::kClosed, 0, 1.0)),
        model_(seeds.model),
        source_(*world.cluster, kReader, &stats_),
        features_(*world.cluster, kReader, kDim, &stats_),
        updater_(updater) {}

  double slo_ms() const override { return 10.0; }
  bool updates_inline() const override { return true; }

  Phase Run(double seconds, uint64_t max_ops, Tracer* tracer,
            Failures* failures) override {
    Phase phase;
    const CounterMark begin = Mark(*world_.cluster, stats_);
    phase.start_ns = NowNs();
    const int64_t deadline =
        phase.start_ns + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline && (max_ops == 0 || phase.ops.size() < max_ops)) {
      const uint64_t id = next_id_++;
      OpRecord rec;
      const int64_t cpu0 = CpuNs();
      rec.start_ns = NowNs();
      block::SampledBlock blk;
      nn::Matrix h2;
      {
        ScopedSpan root(tracer, "op", id);
        {
          ScopedSpan span(tracer, "sampling.block", id, root.id());
          blk = SampleRequest(gen_, id, source_);
        }
        nn::Matrix x;
        {
          ScopedSpan span(tracer, "block.gather", id, root.id());
          x = block::GatherBlockFeatures(blk, features_, /*row_cache=*/nullptr);
        }
        ScopedSpan span(tracer, "algo.forward", id, root.id());
        h2 = model_.Embed(x, blk);
      }
      rec.end_ns = NowNs();
      rec.cpu_ns = CpuNs() - cpu0;
      rec.busy_ns = rec.end_ns - rec.start_ns;
      rec.done = true;
      phase.slots += blk.total_slots();
      phase.rows += blk.num_vertices();
      if (!RowsUnitNorm(h2)) {
        failures->Add("serve.row_not_unit_norm");
        rec.ok = false;
      }
      if ((id + 1) % kReadsPerUpdate == 0) {
        // The update shares the client: its time counts against throughput.
        const Updater::Cost cost = updater_->Step(tracer, &phase.updates,
                                                  failures);
        rec.busy_ns += cost.wall_ns;
        rec.cpu_ns += cost.cpu_ns;
      }
      phase.ops.push_back(rec);
    }
    phase.end_ns = NowNs();
    CloseCounters(begin, Mark(*world_.cluster, stats_), &phase);
    return phase;
  }

  uint64_t InputDigest() const override {
    return RootsDigest(gen_, /*with_arrivals=*/false);
  }

 private:
  World& world_;
  LoadGenerator gen_;
  ServedModel model_;
  CommStats stats_;
  aligraph::DistributedNeighborSource source_;
  block::ClusterFeatureSource features_;
  Updater* updater_;
  uint64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(World& world, const Seeds& seeds,
                                    double rate, uint64_t requests) {
  return std::make_unique<ServeWorkload>(world, seeds, rate, requests);
}

std::unique_ptr<Workload> MakeServeUpdate(World& world, const Seeds& seeds,
                                          Updater* updater) {
  return std::make_unique<ServeUpdateWorkload>(world, seeds, updater);
}

}  // namespace perfbench
