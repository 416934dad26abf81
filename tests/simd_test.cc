// Parity suite for the kernel tables: every kernel in SimdKernels must
// produce output bit-identical to the scalar reference on the same input.
// The suite is parameterized over every variant table this build provides
// AND this CPU can run (scalar, avx2, avx512) — not just the table
// dispatch selected — so on AVX-512 hardware the AVX2 table is still
// diffed even though dispatch would skip it. Sizes sweep empty,
// single-element, and every non-lane-multiple tail around the 4/8/16/32/64
// lane widths the variants use, so remainder handling is exercised as hard
// as the vector body. Under GEMS_FORCE_SCALAR=1 (the second CI run) the
// parameter list collapses to the scalar table and the suite degenerates
// to a self-check — the point of running it twice is that the native run
// diffs real SIMD output.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hash/polynomial.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace gems::simd {
namespace {

constexpr size_t kSizes[] = {0,  1,  2,  3,   5,   8,   13,  16,
                             17, 31, 32, 33,  63,  64,  65,  127,
                             128, 129, 255, 256, 257, 1000, 1023};

std::vector<uint64_t> RandomU64(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (uint64_t& v : out) v = rng.NextU64();
  return out;
}

std::vector<int64_t> RandomI64(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> out(n);
  for (int64_t& v : out) v = static_cast<int64_t>(rng.NextU64());
  return out;
}

// Exact-bits comparison for doubles (EXPECT_EQ would call 0.0 == -0.0).
void ExpectSameBits(double a, double b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << a << " vs " << b;
}

// Every kernel table this build provides and this CPU can execute,
// deduplicated (the active table is also one of the variants). Honors the
// GEMS_FORCE_SCALAR override so the forced-scalar CI run really is
// scalar-only.
std::vector<const SimdKernels*> VariantTables() {
  std::vector<const SimdKernels*> tables;
  tables.push_back(&ScalarKernels());
  if (Dispatch().forced_scalar) return tables;
#if defined(__x86_64__) || defined(_M_X64)
  if (const SimdKernels* t = Avx2Kernels();
      t != nullptr && __builtin_cpu_supports("avx2")) {
    tables.push_back(t);
  }
  if (const SimdKernels* t = Avx512Kernels();
      t != nullptr && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512cd") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    tables.push_back(t);
  }
#endif
  return tables;
}

class SimdParity : public ::testing::TestWithParam<const SimdKernels*> {};

TEST_P(SimdParity, Mix64Batch) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    const std::vector<uint64_t> keys = RandomU64(n, 100 + n);
    std::vector<uint64_t> want(n), got(n);
    scalar.mix64_batch(keys.data(), n, 0xDEADBEEF + n, want.data());
    active.mix64_batch(keys.data(), n, 0xDEADBEEF + n, got.data());
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST_P(SimdParity, Mix64Min) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  EXPECT_EQ(active.mix64_min(nullptr, 0, 42), ~uint64_t{0});
  for (size_t n : kSizes) {
    const std::vector<uint64_t> keys = RandomU64(n, 200 + n);
    EXPECT_EQ(scalar.mix64_min(keys.data(), n, 7 * n),
              active.mix64_min(keys.data(), n, 7 * n))
        << "n=" << n;
  }
}

TEST_P(SimdParity, Murmur3BatchU64) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    const std::vector<uint64_t> keys = RandomU64(n, 300 + n);
    std::vector<uint64_t> want_lo(n), want_hi(n), got_lo(n), got_hi(n);
    scalar.murmur3_batch_u64(keys.data(), n, 99, want_lo.data(),
                             want_hi.data());
    active.murmur3_batch_u64(keys.data(), n, 99, got_lo.data(),
                             got_hi.data());
    EXPECT_EQ(want_lo, got_lo) << "n=" << n;
    EXPECT_EQ(want_hi, got_hi) << "n=" << n;
  }
}

TEST_P(SimdParity, HllUpdateHashes) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (int precision : {4, 12, 18}) {
    for (size_t n : kSizes) {
      const std::vector<uint64_t> hashes = RandomU64(n, 400 + n);
      std::vector<uint8_t> want(size_t{1} << precision, 0);
      std::vector<uint8_t> got = want;
      scalar.hll_update_hashes(want.data(), precision, hashes.data(), n);
      active.hll_update_hashes(got.data(), precision, hashes.data(), n);
      EXPECT_EQ(want, got) << "p=" << precision << " n=" << n;
    }
  }
}

TEST_P(SimdParity, HllIngest) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    const std::vector<uint64_t> keys = RandomU64(n, 500 + n);
    std::vector<uint8_t> want(size_t{1} << 12, 0);
    std::vector<uint8_t> got = want;
    scalar.hll_ingest(want.data(), 12, keys.data(), n, 0xABCDEF + n);
    active.hll_ingest(got.data(), 12, keys.data(), n, 0xABCDEF + n);
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST_P(SimdParity, U8Max) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    Rng rng(600 + n);
    std::vector<uint8_t> src(n), base(n);
    for (uint8_t& v : src) v = static_cast<uint8_t>(rng.NextU64());
    for (uint8_t& v : base) v = static_cast<uint8_t>(rng.NextU64());
    std::vector<uint8_t> want = base, got = base;
    scalar.u8_max(want.data(), src.data(), n);
    active.u8_max(got.data(), src.data(), n);
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST_P(SimdParity, HllHarmonicSum) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    Rng rng(700 + n);
    std::vector<uint8_t> regs(n);
    for (uint8_t& v : regs) v = static_cast<uint8_t>(rng.NextBounded(65));
    double want_sum = 0, got_sum = 0;
    uint32_t want_zeros = 0, got_zeros = 0;
    scalar.hll_harmonic_sum(regs.data(), n, &want_sum, &want_zeros);
    active.hll_harmonic_sum(regs.data(), n, &got_sum, &got_zeros);
    ExpectSameBits(want_sum, got_sum);
    EXPECT_EQ(want_zeros, got_zeros) << "n=" << n;
  }
}

TEST_P(SimdParity, CmRowAdd) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (uint64_t width : {uint64_t{7}, uint64_t{1000}, uint64_t{1024}}) {
    for (size_t n : kSizes) {
      const std::vector<uint64_t> hashes = RandomU64(n, 800 + n);
      std::vector<uint64_t> want(width, 0), got(width, 0);
      scalar.cm_row_add(want.data(), width, hashes.data(), n);
      active.cm_row_add(got.data(), width, hashes.data(), n);
      EXPECT_EQ(want, got) << "w=" << width << " n=" << n;
    }
  }
}

TEST_P(SimdParity, CmRowAddWeighted) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (uint64_t width : {uint64_t{1000}, uint64_t{1024}}) {
    for (size_t n : kSizes) {
      const std::vector<uint64_t> hashes = RandomU64(n, 900 + n);
      const std::vector<int64_t> weights = RandomI64(n, 901 + n);
      std::vector<uint64_t> want(width, 0), got(width, 0);
      scalar.cm_row_add_weighted(want.data(), width, hashes.data(),
                                 weights.data(), n);
      active.cm_row_add_weighted(got.data(), width, hashes.data(),
                                 weights.data(), n);
      EXPECT_EQ(want, got) << "w=" << width << " n=" << n;
    }
  }
}

TEST_P(SimdParity, CmRowMin) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (uint64_t width : {uint64_t{1000}, uint64_t{1024}}) {
    const std::vector<uint64_t> row = RandomU64(width, 1000 + width);
    for (size_t n : kSizes) {
      const std::vector<uint64_t> hashes = RandomU64(n, 1001 + n);
      std::vector<uint64_t> want(n, ~uint64_t{0}), got(n, ~uint64_t{0});
      scalar.cm_row_min(row.data(), width, hashes.data(), n, want.data());
      active.cm_row_min(row.data(), width, hashes.data(), n, got.data());
      EXPECT_EQ(want, got) << "w=" << width << " n=" << n;
    }
  }
}

TEST_P(SimdParity, Mod61PolyEval) {
  // Differential against KWiseHash::EvalReduced, the per-item Horner loop
  // the batch callers replaced. Keys and coefficients hit the field's edges
  // — 0, 1 and p - 1, the largest limbs and the fold boundary — as well as
  // random residues; the key pattern has period 5, coprime to every lane
  // width, so each lane and the tail see every edge.
  const SimdKernels& active = *GetParam();
  constexpr uint64_t kP = KWiseHash::kPrime;
  constexpr size_t kLengths[] = {0, 1, 7, 8, 9, 255, 256, 1000};
  Rng rng(61);
  for (int k : {1, 2, 4}) {
    std::vector<std::vector<uint64_t>> coefficient_sets = {
        std::vector<uint64_t>(k, 0), std::vector<uint64_t>(k, kP - 1)};
    for (int pattern = 0; pattern < 4; ++pattern) {
      std::vector<uint64_t> coeffs(k);
      for (int j = 0; j < k; ++j) {
        coeffs[j] = pattern < 2 ? ((j + pattern) % 2 == 0 ? kP - 1 : 0)
                                : rng.NextU64() % kP;
      }
      coefficient_sets.push_back(coeffs);
    }
    for (const std::vector<uint64_t>& coeffs : coefficient_sets) {
      const KWiseHash hash(coeffs);
      for (size_t n : kLengths) {
        std::vector<uint64_t> keys(n);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t edges[] = {0, 1, kP - 1};
          keys[i] = i % 5 < 3 ? edges[i % 5] : rng.NextU64() % kP;
        }
        std::vector<uint64_t> want(n), got(n);
        for (size_t i = 0; i < n; ++i) want[i] = hash.EvalReduced(keys[i]);
        active.mod61_poly_eval(keys.data(), n, hash.coefficients(), k,
                               got.data());
        EXPECT_EQ(want, got) << "k=" << k << " n=" << n
                             << " c0=" << coeffs[0];
      }
    }
  }
}

// Blocked-layout geometries to sweep: (depth, cols) pairs covering every
// legal fill of the 8-slot block, with both pow2 and non-pow2 block counts
// so the modulo path is exercised.
struct BlockedGeometry {
  uint32_t depth;
  uint32_t cols;
};
constexpr BlockedGeometry kBlockedGeometries[] = {
    {1, 8}, {2, 4}, {4, 2}, {5, 1}, {8, 1}};
constexpr uint64_t kBlockCounts[] = {7, 128, 1000};

TEST_P(SimdParity, CmBlockedAdd) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (const BlockedGeometry& g : kBlockedGeometries) {
    for (uint64_t blocks : kBlockCounts) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{65}, size_t{1000}}) {
        const std::vector<uint64_t> keys = RandomU64(n, 1300 + n);
        std::vector<uint64_t> want(blocks * 8, 0), got(blocks * 8, 0);
        scalar.cm_blocked_add(want.data(), blocks, g.depth, g.cols, 77,
                              keys.data(), n);
        active.cm_blocked_add(got.data(), blocks, g.depth, g.cols, 77,
                              keys.data(), n);
        EXPECT_EQ(want, got)
            << "d=" << g.depth << " b=" << blocks << " n=" << n;
      }
    }
  }
}

TEST_P(SimdParity, I64SumSquares) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    const std::vector<int64_t> values = RandomI64(n, 1200 + n);
    ExpectSameBits(scalar.i64_sum_squares(values.data(), n),
                   active.i64_sum_squares(values.data(), n));
  }
}

TEST_P(SimdParity, BloomQuery) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (uint64_t num_bits : {uint64_t{100003}, uint64_t{1} << 16}) {
    for (size_t n : kSizes) {
      // Probes with the sketch's double-hash contract (odd h2); the even
      // ones are inserted first, so the query mixes present and absent keys.
      const std::vector<uint64_t> h1 = RandomU64(n, 1300 + n);
      std::vector<uint64_t> h2 = RandomU64(n, 1301 + n);
      for (uint64_t& h : h2) h |= 1;
      std::vector<uint64_t> bits((num_bits + 63) / 64, 0);
      for (size_t i = 0; i < n; i += 2) {
        uint64_t h = h1[i];
        for (int j = 0; j < 7; ++j, h += h2[i]) {
          const uint64_t bit = h % num_bits;
          bits[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
      }
      std::vector<uint8_t> want_out(n, 9), got_out(n, 9);
      scalar.bloom_query(bits.data(), num_bits, 7, h1.data(), h2.data(), n,
                         want_out.data());
      active.bloom_query(bits.data(), num_bits, 7, h1.data(), h2.data(), n,
                         got_out.data());
      EXPECT_EQ(want_out, got_out) << "bits=" << num_bits << " n=" << n;
    }
  }
}

TEST_P(SimdParity, BlockedBloomInsertAndQuery) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (uint64_t num_blocks : {uint64_t{129}, uint64_t{256}}) {
    for (size_t n : kSizes) {
      const std::vector<uint64_t> keys = RandomU64(n, 1400 + n);
      std::vector<uint64_t> want(num_blocks * 8, 0);
      std::vector<uint64_t> got = want;
      scalar.blocked_bloom_insert(want.data(), num_blocks, 8, 77, keys.data(),
                                  n);
      active.blocked_bloom_insert(got.data(), num_blocks, 8, 77, keys.data(),
                                  n);
      EXPECT_EQ(want, got) << "blocks=" << num_blocks << " n=" << n;

      const std::vector<uint64_t> queries = RandomU64(n, 1401 + n);
      std::vector<uint8_t> want_out(n, 9), got_out(n, 9);
      scalar.blocked_bloom_query(want.data(), num_blocks, 8, 77,
                                 queries.data(), n, want_out.data());
      active.blocked_bloom_query(got.data(), num_blocks, 8, 77,
                                 queries.data(), n, got_out.data());
      EXPECT_EQ(want_out, got_out) << "blocks=" << num_blocks << " n=" << n;
    }
  }
}

TEST_P(SimdParity, ElementwiseMerges) {
  const SimdKernels& scalar = ScalarKernels();
  const SimdKernels& active = *GetParam();
  for (size_t n : kSizes) {
    const std::vector<uint64_t> src = RandomU64(n, 1700 + n);
    const std::vector<uint64_t> base = RandomU64(n, 1701 + n);

    std::vector<uint64_t> want = base, got = base;
    scalar.u64_min(want.data(), src.data(), n);
    active.u64_min(got.data(), src.data(), n);
    EXPECT_EQ(want, got) << "u64_min n=" << n;

    want = base;
    got = base;
    scalar.u64_add(want.data(), src.data(), n);
    active.u64_add(got.data(), src.data(), n);
    EXPECT_EQ(want, got) << "u64_add n=" << n;

    const std::vector<int64_t> isrc = RandomI64(n, 1702 + n);
    std::vector<int64_t> iwant = RandomI64(n, 1703 + n);
    std::vector<int64_t> igot = iwant;
    scalar.i64_add(iwant.data(), isrc.data(), n);
    active.i64_add(igot.data(), isrc.data(), n);
    EXPECT_EQ(iwant, igot) << "i64_add n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SimdParity, ::testing::ValuesIn(VariantTables()),
    [](const ::testing::TestParamInfo<const SimdKernels*>& info) {
      return std::string(info.param->name);
    });

// ---------------------------------------------------------------- dispatch

TEST(SimdDispatch, SelectionIsCoherent) {
  const DispatchInfo& info = Dispatch();
  const std::string level = info.level;
  EXPECT_TRUE(level == "scalar" || level == "avx2" || level == "avx512")
      << level;
  // Without the test hook, the active table is the startup selection.
  EXPECT_STREQ(ActiveLevel(), info.level);
  EXPECT_STREQ(Kernels().name, info.level);
}

TEST(SimdDispatch, ForceScalarHookSwapsTheTable) {
  ForceScalarForTesting(true);
  EXPECT_STREQ(ActiveLevel(), "scalar");
  EXPECT_STREQ(Kernels().name, "scalar");
  EXPECT_EQ(&Kernels(), &ScalarKernels());
  ForceScalarForTesting(false);
  EXPECT_STREQ(ActiveLevel(), Dispatch().level);
}

TEST(SimdDispatch, JsonShape) {
  const std::string json = DispatchJson();
  EXPECT_NE(json.find("\"level\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cpu_features\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"forced_scalar\""), std::string::npos) << json;
  EXPECT_NE(json.find(Dispatch().level), std::string::npos) << json;
}

}  // namespace
}  // namespace gems::simd
