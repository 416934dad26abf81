#ifndef GEMS_FUZZ_VIEW_MERGE_ACCUMULATORS_H_
#define GEMS_FUZZ_VIEW_MERGE_ACCUMULATORS_H_

#include <cstdint>
#include <vector>

#include "cardinality/hyperloglog.h"
#include "cardinality/kmv.h"
#include "common/layout.h"
#include "frequency/count_min.h"
#include "frequency/count_sketch.h"
#include "membership/bloom.h"

namespace gems::fuzzing {

/// The accumulators fuzz_wire_view checks view-merge parity against: one
/// per family whose MergeFromView reads the wrapped payload in place, and
/// one per counter layout for Count-Min and Count Sketch. Small shapes, so
/// each check costs microseconds. fuzz_replay seeds its mutations with
/// their envelopes, so mutants keep an accumulator's shape and reach the
/// merge itself, not only the compatibility check.
struct ViewMergeAccumulators {
  ViewMergeAccumulators() {
    for (uint64_t i = 1; i <= 200; ++i) {
      const uint64_t item = (i * 0xC2B2AE3D27D4EB4Full) >> 40;
      hll.Update(item);
      kmv.Update(item);
      count_min.Update(item % 97);
      count_min_blocked.Update(item % 97);
      count_sketch.Update(item % 97);
      count_sketch_blocked.Update(item % 97);
      bloom.Insert(item);
    }
  }

  std::vector<std::vector<uint8_t>> Envelopes() const {
    return {hll.Serialize(),          kmv.Serialize(),
            count_min.Serialize(),    count_min_blocked.Serialize(),
            count_sketch.Serialize(), count_sketch_blocked.Serialize(),
            bloom.Serialize()};
  }

  HyperLogLog hll{10, 7};
  KmvSketch kmv{64, 7};
  CountMinSketch count_min{64, 3, 7};
  CountMinSketch count_min_blocked{64, 3, 7, false, SketchLayout::kBlocked};
  CountSketch count_sketch{64, 3, 7};
  CountSketch count_sketch_blocked{64, 3, 7, SketchLayout::kBlocked};
  BloomFilter bloom{4096, 4, 7};
};

}  // namespace gems::fuzzing

#endif  // GEMS_FUZZ_VIEW_MERGE_ACCUMULATORS_H_
