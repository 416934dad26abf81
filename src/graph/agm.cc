#include "graph/agm.h"

#include <numeric>

#include "common/check.h"
#include "core/wire.h"
#include "graph/union_find.h"
#include "hash/hash.h"

namespace gems {
namespace {

/// Every sampler's options: levels sized to the edge-id universe n^2 plus
/// slack, at most 48.
L0Sampler::Options SamplerOptions(uint32_t num_vertices,
                                  const AgmSketch::Options& options) {
  L0Sampler::Options sampler_options;
  sampler_options.sparsity = options.sparsity;
  sampler_options.num_rows = options.num_rows;
  int levels = 2;
  while (levels < 44 && (uint64_t{1} << levels) <
                            static_cast<uint64_t>(num_vertices) * num_vertices) {
    ++levels;
  }
  sampler_options.num_levels = levels + 4;
  return sampler_options;
}

}  // namespace

AgmSketch::AgmSketch(uint32_t num_vertices, uint64_t seed)
    : AgmSketch(num_vertices, seed, Options()) {}

AgmSketch::AgmSketch(uint32_t num_vertices, uint64_t seed,
                     const Options& options)
    : num_vertices_(num_vertices), seed_(seed), options_(options) {
  GEMS_CHECK(num_vertices >= 2);
  GEMS_CHECK(options.num_copies >= 1);
  const L0Sampler::Options sampler_options =
      SamplerOptions(num_vertices, options);
  samplers_.reserve(static_cast<size_t>(options.num_copies) * num_vertices);
  for (int copy = 0; copy < options.num_copies; ++copy) {
    for (uint32_t vertex = 0; vertex < num_vertices; ++vertex) {
      // All vertices within a copy share the sampler seed so that their
      // sketches are merge-compatible (vector addition).
      samplers_.emplace_back(DeriveSeed(seed, copy), sampler_options);
    }
  }
}

uint64_t AgmSketch::EncodeEdge(uint32_t u, uint32_t v) const {
  GEMS_DCHECK(u != v);
  if (u > v) std::swap(u, v);
  return static_cast<uint64_t>(u) * num_vertices_ + v;
}

Edge AgmSketch::DecodeEdge(uint64_t id) const {
  return Edge{static_cast<uint32_t>(id / num_vertices_),
              static_cast<uint32_t>(id % num_vertices_)};
}

void AgmSketch::UpdateEdge(uint32_t u, uint32_t v, int64_t weight) {
  GEMS_CHECK(u < num_vertices_ && v < num_vertices_ && u != v);
  const uint64_t id = EncodeEdge(u, v);
  // Sign convention: the lower-id endpoint adds +w, the higher adds -w, so
  // summing the incidence vectors of a component cancels internal edges.
  const uint32_t low = std::min(u, v);
  const uint32_t high = std::max(u, v);
  for (int copy = 0; copy < options_.num_copies; ++copy) {
    const size_t base = static_cast<size_t>(copy) * num_vertices_;
    samplers_[base + low].Update(id, weight);
    samplers_[base + high].Update(id, -weight);
  }
}

void AgmSketch::AddEdge(uint32_t u, uint32_t v) { UpdateEdge(u, v, 1); }

void AgmSketch::RemoveEdge(uint32_t u, uint32_t v) { UpdateEdge(u, v, -1); }

std::vector<Edge> AgmSketch::SpanningForest() const {
  UnionFind components(num_vertices_);
  std::vector<Edge> forest;

  for (int round = 0; round < options_.num_copies; ++round) {
    if (components.NumComponents() == 1) break;
    const size_t base = static_cast<size_t>(round) * num_vertices_;

    // Group vertices by current component and merge their samplers for
    // this round's (fresh) copy.
    std::vector<uint32_t> representatives;
    std::vector<L0Sampler> merged;
    std::vector<int> slot_of_component(num_vertices_, -1);
    for (uint32_t vertex = 0; vertex < num_vertices_; ++vertex) {
      const size_t root = components.Find(vertex);
      if (slot_of_component[root] < 0) {
        slot_of_component[root] = static_cast<int>(merged.size());
        representatives.push_back(static_cast<uint32_t>(root));
        merged.push_back(samplers_[base + vertex]);
      } else {
        // Accumulate into the component's sampler.
        Status s =
            merged[slot_of_component[root]].Merge(samplers_[base + vertex]);
        GEMS_CHECK(s.ok());
      }
    }

    // Draw one outgoing edge per component and union.
    bool progress = false;
    for (const L0Sampler& sampler : merged) {
      const auto sample = sampler.Draw();
      if (!sample.has_value()) continue;
      const Edge edge = DecodeEdge(sample->item);
      if (edge.u >= num_vertices_ || edge.v >= num_vertices_ ||
          edge.u == edge.v) {
        continue;  // Corrupted recovery; skip defensively.
      }
      if (components.Union(edge.u, edge.v)) {
        forest.push_back(edge);
        progress = true;
      }
    }
    if (!progress && round > 0) {
      // No component advanced this round; later copies are identical in
      // distribution, so further rounds are unlikely to help.
      continue;
    }
  }
  return forest;
}

std::vector<uint32_t> AgmSketch::ConnectedComponents() const {
  UnionFind components(num_vertices_);
  for (const Edge& edge : SpanningForest()) {
    components.Union(edge.u, edge.v);
  }
  std::vector<uint32_t> labels(num_vertices_);
  for (uint32_t vertex = 0; vertex < num_vertices_; ++vertex) {
    labels[vertex] = static_cast<uint32_t>(components.Find(vertex));
  }
  return labels;
}

size_t AgmSketch::NumComponents() const {
  UnionFind components(num_vertices_);
  for (const Edge& edge : SpanningForest()) {
    components.Union(edge.u, edge.v);
  }
  return components.NumComponents();
}

Status AgmSketch::Merge(const AgmSketch& other) {
  if (num_vertices_ != other.num_vertices_ || seed_ != other.seed_ ||
      options_.num_copies != other.options_.num_copies) {
    return Status::InvalidArgument(
        "AGM merge requires identical configuration");
  }
  for (size_t i = 0; i < samplers_.size(); ++i) {
    Status s = samplers_[i].Merge(other.samplers_[i]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void AgmSketch::PutPayload(ByteSink& sink) const {
  sink.PutU32(num_vertices_);
  sink.PutU64(seed_);
  sink.PutVarint(static_cast<uint64_t>(options_.num_copies));
  sink.PutVarint(options_.sparsity);
  sink.PutVarint(options_.num_rows);
  for (const L0Sampler& sampler : samplers_) sampler.PutPayload(sink);
}

Result<AgmSketch> AgmSketch::GetPayload(ByteReader& r) {
  uint32_t num_vertices;
  uint64_t seed, num_copies, sparsity, num_rows;
  if (Status sv = r.GetU32(&num_vertices); !sv.ok()) return sv;
  if (Status ss = r.GetU64(&seed); !ss.ok()) return ss;
  if (Status sc = r.GetVarint(&num_copies); !sc.ok()) return sc;
  if (Status sp = r.GetVarint(&sparsity); !sp.ok()) return sp;
  if (Status sr = r.GetVarint(&num_rows); !sr.ok()) return sr;
  if (num_vertices < 2 || num_copies == 0 || num_copies > 64 ||
      sparsity == 0 || sparsity > 64 || num_rows == 0 || num_rows > 16) {
    return Status::Corruption("invalid AGM configuration");
  }
  Options options;
  options.num_copies = static_cast<int>(num_copies);
  options.sparsity = sparsity;
  options.num_rows = num_rows;
  if (Status sc = r.CheckColumn(
          num_copies * num_vertices,
          L0Sampler::MinEncodedBytes(SamplerOptions(num_vertices, options)));
      !sc.ok()) {
    return sc;
  }
  AgmSketch sketch(num_vertices, seed, options);
  for (L0Sampler& sampler : sketch.samplers_) {
    if (Status sd = sampler.DecodeFrom(&r); !sd.ok()) return sd;
  }
  return sketch;
}

}  // namespace gems
