#ifndef GEMS_SIMD_KERNELS_H_
#define GEMS_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

/// \file
/// The kernel table: one function pointer per hot loop that has a vector
/// variant, with one scalar reference implementation (kernels_scalar.cc)
/// and the x86-64 variants (kernels_avx2.cc, kernels_avx512.cc). A variant
/// stays only where it beats the scalar reference by at least 1.10x at one
/// of its callers' shapes (DESIGN.md, "Kernel audit"); other ISAs run the
/// scalar table. A table is selected once at startup by dispatch.cc;
/// sketches call through `simd::Kernels()` and never test CPU features
/// themselves.
///
/// The contract every variant must honor is **bit identity**: for any
/// input, a variant produces exactly the bytes/values the scalar reference
/// produces — same register contents, same counter values — so a sketch
/// ingested under one dispatch level serializes to the same envelope as
/// under any other. tests/simd_test.cc enforces this on randomized lengths
/// (empty, single element, non-multiple-of-lane-width tails) for every
/// kernel.
///
/// Floating-point kernels state their reduction order explicitly (stripe-4
/// accumulation, reduced as (s0+s1)+(s2+s3)) so scalar and vector variants
/// associate additions identically.

namespace gems::simd {

struct SimdKernels {
  /// Variant name for bench/caps attribution: "scalar", "avx2", "avx512".
  const char* name;

  // ---------------------------------------------------------------- hash

  /// out[i] = Mix64(keys[i] + mixed_seed) — the hoisted-seed form of
  /// Hash64(key, seed) that HashBatch uses (mixed_seed is the caller's
  /// Mix64(seed + golden) value).
  void (*mix64_batch)(const uint64_t* keys, size_t n, uint64_t mixed_seed,
                      uint64_t* out);

  /// min over i of Mix64(keys[i] + mixed_seed); ~0ull when n == 0.
  /// MinHash's coordinate-outer batch reduces each signature slot with one
  /// call (pure min reduction, no scatter).
  uint64_t (*mix64_min)(const uint64_t* keys, size_t n, uint64_t mixed_seed);

  /// 4-8 keys in flight of the 8-byte Murmur3 x64-128 specialization:
  /// lo[i]/hi[i] = Murmur3_128_U64(keys[i], seed).
  void (*murmur3_batch_u64)(const uint64_t* keys, size_t n, uint64_t seed,
                            uint64_t* lo, uint64_t* hi);

  // -------------------------------------------- cardinality (HLL, HLL++)

  /// Dense HLL register pass over precomputed 64-bit hashes:
  ///   idx = hash >> (64-p),  rho = clz(hash & ((1<<(64-p))-1)) - p + 1,
  ///   regs[idx] = max(regs[idx], rho).
  /// `precision` in [4, 18].
  void (*hll_update_hashes)(uint8_t* regs, int precision,
                            const uint64_t* hashes, size_t n);

  /// Fused ingest: hll_update_hashes applied to Mix64(keys[i] + mixed_seed)
  /// without materializing the hash words (the UpdateBatch fast path).
  void (*hll_ingest)(uint8_t* regs, int precision, const uint64_t* keys,
                     size_t n, uint64_t mixed_seed);

  /// dst[i] = max(dst[i], src[i]) over bytes (HLL merge / merge-from-view).
  void (*u8_max)(uint8_t* dst, const uint8_t* src, size_t n);

  /// Dense harmonic sum for estimation: *sum = Σ 2^-regs[i] with stripe-4
  /// accumulation (element i feeds stripe i & 3; final reduce
  /// (s0+s1)+(s2+s3)), *zeros = #{i : regs[i] == 0}. Register values must
  /// be <= 64.
  void (*hll_harmonic_sum)(const uint8_t* regs, size_t n, double* sum,
                           uint32_t* zeros);

  // --------------------------------------------------- frequency sketches

  /// Count-Min row update: row[hashes[i] % width] += 1. The modulo is
  /// exact (strength-reduced internally), so results match any correct
  /// per-item path bit for bit.
  void (*cm_row_add)(uint64_t* row, uint64_t width, const uint64_t* hashes,
                     size_t n);

  /// Weighted variant: row[hashes[i] % width] += weights[i] (as uint64).
  void (*cm_row_add_weighted)(uint64_t* row, uint64_t width,
                              const uint64_t* hashes, const int64_t* weights,
                              size_t n);

  /// One row of a batched min-reduce point query:
  /// out[i] = min(out[i], row[hashes[i] % width]). Callers seed `out` with
  /// ~0ull and fold one row per call (also the conservative-update variant's
  /// min pass, applied over its per-row buckets).
  void (*cm_row_min)(const uint64_t* row, uint64_t width,
                     const uint64_t* hashes, size_t n, uint64_t* out);

  /// Σ (double)v[i] * (double)v[i] with the stripe-4 contract above
  /// (CountSketch/AMS F2 row evaluation feeding the median).
  double (*i64_sum_squares)(const int64_t* values, size_t n);

  /// Carter-Wegman polynomial hash over the Mersenne field p = 2^61 - 1:
  /// out[i] = (Σ_j coeffs[j] * x[i]^j) mod p by Horner's rule, coefficients
  /// low degree first — KWiseHash::EvalReduced over a batch of reduced
  /// keys. Requires k >= 1, x[i] < p and coeffs[j] < p. Every variant
  /// returns the canonical residue in [0, p), so the output is exact.
  /// Count Sketch (bucket and sign rows) and AMS (sign estimators) feed
  /// all their batch polynomials through it.
  void (*mod61_poly_eval)(const uint64_t* x, size_t n, const uint64_t* coeffs,
                          int k, uint64_t* out);

  /// Cache-line-blocked Count-Min batch update, fused hash + block-select +
  /// prefetch + probe (the kBlocked layout): one Murmur3_128_U64 per key,
  /// block = h.low % num_blocks, then all `depth` row counters live in the
  /// selected 8-slot block — row r owns slots [r*cols, (r+1)*cols) and its
  /// sub-column is 3-bit slice r of h.high masked to cols-1. `cols` is a
  /// power of two with cols * depth <= 8.
  void (*cm_blocked_add)(uint64_t* slots, uint64_t num_blocks, uint32_t depth,
                         uint32_t cols, uint64_t seed, const uint64_t* keys,
                         size_t n);

  // -------------------------------------------------- membership filters

  /// Batch membership: out[i] = 1 iff all k probe bits of key i are set.
  void (*bloom_query)(const uint64_t* bits, uint64_t num_bits, int k,
                      const uint64_t* h1, const uint64_t* h2, size_t n,
                      uint8_t* out);

  /// Blocked Bloom batch insert, fused hash + block-select + probe pass
  /// (Murmur3_128_U64 per key; block = h.low % num_blocks; probes are
  /// 9-bit slices of h.high, refilled from Mix64(h.high) after the sixth).
  /// Blocks are 8 words (512 bits); prefetching is the kernel's job.
  void (*blocked_bloom_insert)(uint64_t* words, uint64_t num_blocks, int k,
                               uint64_t seed, const uint64_t* keys, size_t n);

  /// Blocked Bloom batch membership with the same probe schedule.
  void (*blocked_bloom_query)(const uint64_t* words, uint64_t num_blocks,
                              int k, uint64_t seed, const uint64_t* keys,
                              size_t n, uint8_t* out);

  // ------------------------------------------- elementwise merge kernels

  /// dst[i] = min(dst[i], src[i]) (MinHash signature merge).
  void (*u64_min)(uint64_t* dst, const uint64_t* src, size_t n);

  /// dst[i] += src[i] (Count-Min merge).
  void (*u64_add)(uint64_t* dst, const uint64_t* src, size_t n);

  /// dst[i] += src[i] (CountSketch / AMS merges).
  void (*i64_add)(int64_t* dst, const int64_t* src, size_t n);
};

/// The scalar reference table (always available; the parity baseline).
const SimdKernels& ScalarKernels();

#if defined(__x86_64__) || defined(_M_X64)
/// The AVX2 table, or nullptr when the build lacks the variant TU.
/// dispatch.cc checks CPU support before selecting it.
const SimdKernels* Avx2Kernels();

/// The AVX-512 table (requires F+CD+DQ+VL+BW at run time), or nullptr when
/// the toolchain cannot target AVX-512. Starts from the AVX2 table, so
/// hll_harmonic_sum and bloom_query run their AVX2 variants.
const SimdKernels* Avx512Kernels();
#endif

}  // namespace gems::simd

#endif  // GEMS_SIMD_KERNELS_H_
