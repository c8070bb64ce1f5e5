/// \file train.cc
/// \brief `train`: a closed loop with one client running sequential
/// GraphSAGE steps, as SageTrainer does with pipeline_depth = 0, but with
/// every read going through the simulated cluster.
///
/// One step: 128 positive edges from TraverseSampler::SampleEdges, 2
/// negatives each from NegativeSampler (512 roots), SampleBlock with
/// fan-outs [10, 5], GatherBlockFeatures through a feature-row cache that
/// is reset every 64 steps (once per SageTrainer epoch), forward, the edge
/// BCE loss and its backward, and Adam.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "algo/gnn.h"
#include "block/feature_source.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "ops/hop_cache.h"
#include "perfbench.h"
#include "sampling/sampler.h"

namespace perfbench {
namespace {

using aligraph::NeighborhoodSampler;
namespace block = aligraph::block;
namespace nn = aligraph::nn;

constexpr size_t kPositives = 128;
constexpr uint32_t kNegatives = 2;
constexpr size_t kRoots = kPositives * (2 + kNegatives);
constexpr uint64_t kEpochSteps = 64;    // row-cache reset cadence
constexpr uint64_t kEdgeCheckEvery = 16;  // steps whose hop edges are checked
constexpr uint64_t kDigestOps = 64;

std::vector<VertexId> AllVertices(const AttributedGraph& graph) {
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return all;
}

class TrainWorkload : public Workload {
 public:
  TrainWorkload(World& world, const Seeds& seeds)
      : world_(world),
        source_(*world.cluster, kReader, &stats_),
        features_(*world.cluster, kReader, kDim, &stats_),
        traverse_(world.cluster->server(kReader).owned_vertices(),
                  seeds.sampler),
        negatives_(*world.graph, AllVertices(*world.graph), 0.75,
                   seeds.negative),
        hood_(aligraph::NeighborStrategy::kUniform, seeds.sampler + 1),
        rng_(seeds.model),
        layer1_(kDim, kDim, /*maxpool=*/false, rng_),
        layer2_(kDim, kDim, /*maxpool=*/false, rng_, /*relu=*/false),
        opt_(0.01f),
        row_cache_(kDim) {}

  // Median steps take 30-50 ms on a 4-core host.
  double slo_ms() const override { return 100.0; }

  Phase Run(double seconds, uint64_t max_ops, Tracer* tracer,
            Failures* failures) override {
    Phase phase;
    const CounterMark begin = Mark(*world_.cluster, stats_);
    const uint64_t hits0 = row_hits_ + row_cache_.hits();
    const uint64_t misses0 = row_misses_ + row_cache_.misses();
    phase.start_ns = NowNs();
    const int64_t deadline = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline && (max_ops == 0 || phase.ops.size() < max_ops)) {
      OpRecord rec;
      const int64_t cpu0 = CpuNs();
      rec.start_ns = NowNs();
      Step step = RunStep(tracer);
      rec.end_ns = NowNs();
      rec.cpu_ns = CpuNs() - cpu0;
      rec.busy_ns = rec.end_ns - rec.start_ns;
      rec.done = true;
      rec.ok = Check(step, failures);
      phase.slots += step.blk.total_slots();
      phase.rows += step.blk.num_vertices();
      phase.ops.push_back(rec);
    }
    phase.end_ns = NowNs();
    phase.row_hits = row_hits_ + row_cache_.hits() - hits0;
    phase.row_misses = row_misses_ + row_cache_.misses() - misses0;
    CloseCounters(begin, Mark(*world_.cluster, stats_), &phase);
    return phase;
  }

  uint64_t InputDigest() const override { return digest_.value(); }

 private:
  struct Step {
    uint64_t index = 0;
    size_t positives = 0;
    block::SampledBlock blk;
    float loss = 0;
  };

  Step RunStep(Tracer* tracer) {
    Step out;
    out.index = step_++;
    const uint64_t op = out.index;
    ScopedSpan root(tracer, "op", op);
    if (out.index % kEpochSteps == 0) {
      row_hits_ += row_cache_.hits();
      row_misses_ += row_cache_.misses();
      row_cache_.Reset();
    }

    std::vector<std::pair<VertexId, aligraph::Neighbor>> pos;
    {
      ScopedSpan span(tracer, "sampling.traverse", op, root.id());
      pos = traverse_.SampleEdges(source_, world_.click, kPositives);
    }
    out.positives = pos.size();
    // Roots per pair p: [4p] = u, [4p + 1] = v, [4p + 2..3] = negatives.
    std::vector<VertexId> roots;
    roots.reserve(pos.size() * (2 + kNegatives));
    {
      ScopedSpan span(tracer, "sampling.negative", op, root.id());
      for (const auto& [u, nb] : pos) {
        roots.push_back(u);
        roots.push_back(nb.dst);
        for (VertexId n : negatives_.Sample(kNegatives, nb.dst)) {
          roots.push_back(n);
        }
      }
    }
    if (out.index < kDigestOps) {
      digest_.Add(roots.data(), roots.size() * sizeof(VertexId));
    }

    const std::vector<uint32_t> fans{kFan1, kFan2};
    {
      ScopedSpan span(tracer, "sampling.block", op, root.id());
      out.blk = hood_.SampleBlock(source_, roots,
                                  NeighborhoodSampler::kAllEdgeTypes, fans);
    }
    nn::Matrix x;
    {
      ScopedSpan span(tracer, "block.gather", op, root.id());
      x = block::GatherBlockFeatures(out.blk, features_, &row_cache_);
    }

    aligraph::algo::SageLayer::Cache c_roots, c_h1, c_top;
    nn::Matrix h2;
    {
      ScopedSpan span(tracer, "algo.forward", op, root.id());
      const nn::Matrix h1_roots =
          layer1_.ForwardBlock(x, out.blk.hops()[0], &c_roots);
      const nn::Matrix h1_h1 =
          layer1_.ForwardBlock(x, out.blk.hops()[1], &c_h1);
      h2 = layer2_.Forward(h1_roots, h1_h1, kFan1, &c_top);
    }
    {
      ScopedSpan span(tracer, "algo.backward", op, root.id());
      // Edge BCE loss over (u, v) = 1 and (u, negative) = 0 pairs.
      const size_t pairs = pos.size() * (1 + kNegatives);
      std::vector<float> logits(pairs), labels(pairs), grad(pairs);
      auto pair_of = [](size_t k) {
        const size_t base = (k / (1 + kNegatives)) * (2 + kNegatives);
        const size_t j = k % (1 + kNegatives);
        return std::pair<size_t, size_t>(base, base + 1 + j);
      };
      for (size_t k = 0; k < pairs; ++k) {
        const auto [a, b] = pair_of(k);
        logits[k] = nn::Dot(h2.Row(a), h2.Row(b));
        labels[k] = k % (1 + kNegatives) == 0 ? 1.0f : 0.0f;
      }
      out.loss = nn::BceWithLogits(logits, labels, grad);
      nn::Matrix dh2(h2.rows(), h2.cols());
      for (size_t k = 0; k < pairs; ++k) {
        const auto [a, b] = pair_of(k);
        nn::Axpy(grad[k], h2.Row(b), dh2.Row(a));
        nn::Axpy(grad[k], h2.Row(a), dh2.Row(b));
      }
      auto [dh1_roots, dh1_h1] = layer2_.Backward(c_top, dh2);
      layer1_.Backward(c_roots, dh1_roots);
      layer1_.Backward(c_h1, dh1_h1);
    }
    {
      ScopedSpan span(tracer, "nn.apply", op, root.id());
      layer1_.Apply(opt_);
      layer2_.Apply(opt_);
    }
    return out;
  }

  /// Output checks of one step; returns false and names each failed cause.
  bool Check(const Step& step, Failures* failures) const {
    bool ok = true;
    auto fail = [&](const char* cause) {
      failures->Add(cause);
      ok = false;
    };
    if (step.positives != kPositives) fail("train.short_edge_batch");
    if (!std::isfinite(step.loss)) fail("train.loss_not_finite");
    const auto& hops = step.blk.hops();
    const bool shaped =
        hops.size() == 2 && hops[0].num_dst() == kRoots &&
        hops[0].num_edges() == kRoots * kFan1 &&
        hops[1].num_dst() == kRoots * kFan1 &&
        hops[1].num_edges() == kRoots * kFan1 * kFan2;
    if (!shaped) {
      fail("train.block_shape");
    } else if (step.index % kEdgeCheckEvery == 0 && !HopEdgesExist(step.blk)) {
      fail("train.hop_edge_missing");
    }
    return ok;
  }

  /// Every drawn (dst -> src) hop edge is an out-edge of dst in the graph,
  /// or a repeat of dst when dst has no out-edges.
  bool HopEdgesExist(const block::SampledBlock& blk) const {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (const block::BlockHop& hop : blk.hops()) {
      for (size_t i = 0; i < hop.num_dst(); ++i) {
        for (uint32_t e = hop.offsets[i]; e < hop.offsets[i + 1]; ++e) {
          edges.emplace_back(blk.global_of(hop.dst[i]),
                             blk.global_of(hop.src[e]));
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<VertexId> adj;
    VertexId current = 0;
    bool loaded = false;
    for (const auto& [dst, src] : edges) {
      if (!loaded || dst != current) {
        adj.clear();
        for (const auto& nb : world_.graph->OutNeighbors(dst)) {
          adj.push_back(nb.dst);
        }
        std::sort(adj.begin(), adj.end());
        current = dst;
        loaded = true;
      }
      const bool exists = adj.empty()
                              ? src == dst
                              : std::binary_search(adj.begin(), adj.end(), src);
      if (!exists) return false;
    }
    return true;
  }

  World& world_;
  CommStats stats_;
  aligraph::DistributedNeighborSource source_;
  block::ClusterFeatureSource features_;
  aligraph::TraverseSampler traverse_;
  aligraph::NegativeSampler negatives_;
  NeighborhoodSampler hood_;
  aligraph::Rng rng_;
  aligraph::algo::SageLayer layer1_;
  aligraph::algo::SageLayer layer2_;
  nn::Adam opt_;
  aligraph::ops::HopEmbeddingCache row_cache_;
  uint64_t row_hits_ = 0, row_misses_ = 0;  // from before the last reset
  uint64_t step_ = 0;
  Fnv digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeTrain(World& world, const Seeds& seeds) {
  return std::make_unique<TrainWorkload>(world, seeds);
}

}  // namespace perfbench
