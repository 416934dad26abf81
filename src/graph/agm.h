#ifndef GEMS_GRAPH_AGM_H_
#define GEMS_GRAPH_AGM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/wire.h"
#include "sampling/l0_sampler.h"

/// \file
/// AGM graph sketches (Ahn, Guha & McGregor, SODA 2012): the paper's
/// example of sketching "more complex data types". Each vertex keeps L0
/// samplers of its edge-incidence vector, signed so that summing the
/// vectors of a vertex set S cancels internal edges and leaves exactly the
/// cut (S, V-S). Because L0 samplers merge by addition, Boruvka's
/// algorithm runs entirely on sketches: per round, merge each component's
/// samplers and draw an outgoing edge. Handles fully dynamic graphs (edge
/// insertions AND deletions) in O(n polylog n) space.

namespace gems {

/// An undirected edge between vertex ids.
struct Edge {
  uint32_t u;
  uint32_t v;
};

/// Sketch of a dynamic graph on `num_vertices` vertices.
class AgmSketch : public WireCodec<AgmSketch> {
 public:
  /// Wire-format type tag.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kAgmSketch;

  struct Options {
    /// Independent sampler copies; one is consumed per Boruvka round, so
    /// this caps the rounds (log2(n) + slack is plenty).
    int num_copies = 12;
    /// Per-level sparse-recovery budget of each sampler.
    size_t sparsity = 2;
    /// Hash rows per recovery structure.
    size_t num_rows = 2;
  };

  AgmSketch(uint32_t num_vertices, uint64_t seed);
  AgmSketch(uint32_t num_vertices, uint64_t seed, const Options& options);

  AgmSketch(const AgmSketch&) = default;
  AgmSketch& operator=(const AgmSketch&) = default;
  AgmSketch(AgmSketch&&) = default;
  AgmSketch& operator=(AgmSketch&&) = default;

  /// Inserts the undirected edge {u, v}. u != v required.
  void AddEdge(uint32_t u, uint32_t v);

  /// Deletes a previously inserted edge (dynamic graphs).
  void RemoveEdge(uint32_t u, uint32_t v);

  /// Runs Boruvka over the sketches; returns a spanning forest (one edge
  /// set that, with high probability, spans every connected component).
  std::vector<Edge> SpanningForest() const;

  /// Component label per vertex, derived from SpanningForest().
  std::vector<uint32_t> ConnectedComponents() const;

  /// Number of connected components (isolated vertices count).
  size_t NumComponents() const;

  /// Merges a sketch of another edge set over the same vertex set.
  Status Merge(const AgmSketch& other);

  uint32_t num_vertices() const { return num_vertices_; }

  /// Encoded coordinate of edge {u, v} in the incidence vectors.
  uint64_t EncodeEdge(uint32_t u, uint32_t v) const;
  Edge DecodeEdge(uint64_t id) const;

  /// Wire format: the whole sketch (all per-vertex samplers), so a worker
  /// can ship its local edge-set sketch to a coordinator — the
  /// communication pattern the AGM setting is about. Size is
  /// O(num_vertices * num_copies * sampler size).
  /// Payload codec; WireCodec supplies the envelope.
  void PutPayload(ByteSink& sink) const;
  static Result<AgmSketch> GetPayload(ByteReader& payload);

 private:
  void UpdateEdge(uint32_t u, uint32_t v, int64_t weight);

  uint32_t num_vertices_;
  uint64_t seed_;
  Options options_;
  /// samplers_[copy * num_vertices_ + vertex].
  std::vector<L0Sampler> samplers_;
};

}  // namespace gems

#endif  // GEMS_GRAPH_AGM_H_
