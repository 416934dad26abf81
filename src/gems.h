#ifndef GEMS_GEMS_H_
#define GEMS_GEMS_H_

/// \file
/// The consolidated public API of the gems sketching library: one include
/// for applications. Link against the `gems` CMake target.
///
///   #include "gems.h"
///
///   gems::HyperLogLog visitors(14, /*seed=*/1);
///   visitors.Update(user_id);
///   gems::Estimate e = visitors.EstimateWithBounds(0.95);
///
/// Internal layering (src/core vs src/common, per-family headers) remains
/// includable directly for consumers that want a narrower dependency
/// surface; this header is the supported, stable entry point. It pulls in:
///
///  - the error model (Status/Result, typed StatusCode),
///  - the estimate value type (point + confidence interval),
///  - serialization (versioned wire envelopes, zero-copy views, the
///    type-erased registry),
///  - every sketch family (cardinality, membership, frequency, quantiles,
///    sampling, moments, similarity, graph),
///  - streaming infrastructure (sliding windows, the stream-query engine),
///  - distributed primitives (merge trees, sharded pipelines, wait-free
///    concurrent wrappers),
///  - the gemsd client and embeddable server (keyed sketches over TCP).

// Error model and core value types.
#include "common/status.h"
#include "core/estimate.h"
#include "core/params.h"

// Serialization: envelopes, byte I/O, zero-copy views, type erasure.
#include "common/bytes.h"
#include "core/io.h"
#include "core/registry.h"
#include "core/view.h"
#include "core/wire.h"

// Memory layout and placement: counter-array layouts, hugepage-backed
// storage, software prefetch.
#include "common/hugepage.h"
#include "common/layout.h"
#include "common/prefetch.h"

// Summary concepts (MergeableSummary, EstimableSummary, ...).
#include "core/summary.h"

// Cardinality.
#include "cardinality/flajolet_martin.h"
#include "cardinality/hllpp.h"
#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "cardinality/linear_counting.h"
#include "cardinality/loglog.h"
#include "cardinality/morris.h"

// Membership.
#include "membership/blocked_bloom.h"
#include "membership/bloom.h"
#include "membership/counting_bloom.h"

// Frequency / heavy hitters.
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "frequency/dyadic_count_min.h"
#include "frequency/majority.h"
#include "frequency/misra_gries.h"
#include "frequency/space_saving.h"

// Quantiles.
#include "quantiles/gk.h"
#include "quantiles/kll.h"
#include "quantiles/mrl.h"
#include "quantiles/qdigest.h"
#include "quantiles/req.h"
#include "quantiles/tdigest.h"

// Hashing utilities and the runtime-dispatched kernel layer.
#include "common/flat_map.h"
#include "common/random.h"
#include "hash/hash.h"
#include "hash/hashed_batch.h"
#include "simd/dispatch.h"

// Sampling, moments, dimensionality reduction.
#include "moments/ams.h"
#include "moments/compressed_sensing.h"
#include "moments/frequent_directions.h"
#include "moments/jl.h"
#include "moments/sparse_jl.h"
#include "moments/tensor_sketch.h"
#include "sampling/l0_sampler.h"
#include "sampling/reservoir.h"

// Similarity and graph.
#include "graph/agm.h"
#include "graph/connectivity.h"
#include "similarity/lsh.h"
#include "similarity/minhash.h"
#include "similarity/simhash.h"

// Differential privacy and robustness.
#include "privacy/mechanisms.h"
#include "privacy/private_cms.h"
#include "privacy/rappor.h"
#include "privacy/secure_aggregation.h"
#include "robust/adversary.h"
#include "robust/robust_f2.h"

// Workload tooling: generators, exact baselines, error metrics, and the
// multi-query workload shared by the E17 bench and tests.
#include "workload/baselines.h"
#include "workload/generators.h"
#include "workload/metrics.h"
#include "workload/multi_query.h"

// Sketch-gradient ML.
#include "ml/fetchsgd.h"
#include "ml/linear_model.h"

// Time dimension: pane-ring sliding windows, decayed counts, the
// exponential histogram.
#include "time/decayed_count_min.h"
#include "time/exponential_histogram.h"
#include "time/pane_ring.h"
#include "time/sliding_count_min.h"
#include "time/sliding_hll.h"

// Streaming engine: single queries and shared-ingest multi-query.
#include "engine/multi_query.h"
#include "engine/stream_query.h"

// Distributed: merge trees, pipelines, concurrent wrappers.
#include "distributed/aggregation.h"
#include "distributed/concurrent/concurrent_any.h"
#include "distributed/concurrent/concurrent_summary.h"
#include "distributed/concurrent/epoch.h"
#include "distributed/sharded_pipeline.h"

// gemsd: keyed sketches over TCP (client, protocol, embeddable server).
#include "server/client.h"
#include "server/keyspace.h"
#include "server/protocol.h"
#include "server/server.h"

#endif  // GEMS_GEMS_H_
