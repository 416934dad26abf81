#include "frequency/misra_gries.h"

#include <algorithm>

#include "common/check.h"
#include "core/wire.h"

namespace gems {

MisraGries::MisraGries(size_t num_counters) : num_counters_(num_counters) {
  GEMS_CHECK(num_counters >= 1);
}

void MisraGries::Update(uint64_t item, int64_t weight) {
  GEMS_CHECK(weight >= 1);
  // Counters never exceed the total, so a total that fits bounds them.
  GEMS_CHECK(!__builtin_add_overflow(total_, weight, &total_));

  const auto it = counters_.find(item);
  if (it != counters_.end()) {
    it->second += weight;
    return;
  }
  if (counters_.size() < num_counters_) {
    counters_.emplace(item, weight);
    return;
  }
  // Decrement-all step: subtract the largest amount that either exhausts
  // the new item's weight or zeroes some existing counter.
  int64_t min_count = weight;
  for (const auto& [key, count] : counters_) {
    min_count = std::min(min_count, count);
  }
  decrement_total_ += min_count;
  for (auto iter = counters_.begin(); iter != counters_.end();) {
    iter->second -= min_count;
    if (iter->second <= 0) {
      iter = counters_.erase(iter);
    } else {
      ++iter;
    }
  }
  const int64_t remaining = weight - min_count;
  if (remaining > 0) {
    counters_.emplace(item, remaining);
  }
}

void MisraGries::UpdateBatch(std::span<const uint64_t> items) {
  // A run of equal items collapses into one weighted update only when the
  // update cannot trigger a decrement-all step: tracked items just add,
  // and an untracked item with a free slot just inserts — both identical
  // to replaying the run one at a time. The decrement-all step is
  // order-dependent (Update(item, run) subtracts min(run, min counter)
  // once; per-item ingest runs up to `run` separate steps), so an
  // untracked item hitting a full table replays item-by-item instead.
  size_t i = 0;
  while (i < items.size()) {
    const uint64_t item = items[i];
    size_t j = i + 1;
    while (j < items.size() && items[j] == item) ++j;
    const int64_t run = static_cast<int64_t>(j - i);
    const auto it = counters_.find(item);
    if (it != counters_.end()) {
      GEMS_CHECK(!__builtin_add_overflow(total_, run, &total_));
      it->second += run;
    } else if (counters_.size() < num_counters_) {
      GEMS_CHECK(!__builtin_add_overflow(total_, run, &total_));
      counters_.emplace(item, run);
    } else {
      for (size_t t = i; t < j; ++t) Update(items[t]);
    }
    i = j;
  }
}

int64_t MisraGries::Estimate(uint64_t item) const {
  const auto it = counters_.find(item);
  return it == counters_.end() ? 0 : it->second;
}

gems::Estimate MisraGries::EstimateWithBounds(uint64_t item,
                                              double confidence) const {
  gems::Estimate e;
  e.value = static_cast<double>(Estimate(item));
  e.lower = e.value;
  e.upper = e.value + static_cast<double>(decrement_total_);
  e.confidence = confidence;
  return e;
}

std::vector<uint64_t> MisraGries::HeavyHitterCandidates(double phi) const {
  // A phi-heavy item has true count >= phi*N; since estimates undercount by
  // at most ErrorBound(), report items with estimate >= phi*N - error.
  const double threshold =
      phi * static_cast<double>(total_) -
      static_cast<double>(decrement_total_);
  std::vector<uint64_t> out;
  for (const auto& [item, count] : counters_) {
    if (static_cast<double>(count) >= threshold) out.push_back(item);
  }
  return out;
}

std::vector<std::pair<uint64_t, int64_t>> MisraGries::Entries() const {
  std::vector<std::pair<uint64_t, int64_t>> out(counters_.begin(),
                                                counters_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

Status MisraGries::Merge(const MisraGries& other) {
  if (num_counters_ != other.num_counters_) {
    return Status::InvalidArgument(
        "MisraGries merge requires equal counter budget");
  }
  // Images may carry any positive counts and totals; refuse a merge whose
  // sums would overflow before anything moves.
  int64_t merged_total = 0, merged_decrements = 0;
  bool overflow =
      __builtin_add_overflow(total_, other.total_, &merged_total) ||
      __builtin_add_overflow(decrement_total_, other.decrement_total_,
                             &merged_decrements);
  for (const auto& [item, count] : other.counters_) {
    if (overflow) break;
    const auto mine = counters_.find(item);
    int64_t sum;
    overflow = mine != counters_.end() &&
               __builtin_add_overflow(mine->second, count, &sum);
  }
  if (overflow) {
    return Status::OutOfRange("MisraGries merge overflows a count or total");
  }
  for (const auto& [item, count] : other.counters_) {
    counters_[item] += count;
  }
  total_ = merged_total;
  decrement_total_ = merged_decrements;

  if (counters_.size() > num_counters_) {
    // Subtract the (num_counters+1)-th largest count from everything.
    std::vector<int64_t> counts;
    counts.reserve(counters_.size());
    for (const auto& [item, count] : counters_) counts.push_back(count);
    std::nth_element(counts.begin(), counts.begin() + num_counters_,
                     counts.end(), std::greater<int64_t>());
    const int64_t pivot = counts[num_counters_];
    decrement_total_ += pivot;
    for (auto it = counters_.begin(); it != counters_.end();) {
      it->second -= pivot;
      if (it->second <= 0) {
        it = counters_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::Ok();
}

void MisraGries::PutPayload(ByteSink& sink) const {
  sink.PutVarint(num_counters_);
  sink.PutI64(total_);
  sink.PutI64(decrement_total_);
  sink.PutVarint(counters_.size());
  // Canonical order so identical summaries serialize to identical bytes.
  std::vector<std::pair<uint64_t, int64_t>> sorted(counters_.begin(),
                                                   counters_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [item, count] : sorted) {
    sink.PutU64(item);
    sink.PutI64(count);
  }
}

Result<MisraGries> MisraGries::GetPayload(ByteReader& r) {
  uint64_t num_counters, num_entries;
  int64_t total, decrements;
  if (Status sn = r.GetVarint(&num_counters); !sn.ok()) return sn;
  if (Status st = r.GetI64(&total); !st.ok()) return st;
  if (Status sd = r.GetI64(&decrements); !sd.ok()) return sd;
  if (Status se = r.GetVarint(&num_entries); !se.ok()) return se;
  if (num_counters == 0 || num_entries > num_counters) {
    return Status::Corruption("invalid MisraGries header");
  }
  MisraGries mg(num_counters);
  mg.total_ = total;
  mg.decrement_total_ = decrements;
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t item;
    int64_t count;
    if (Status si = r.GetU64(&item); !si.ok()) return si;
    if (Status sc = r.GetI64(&count); !sc.ok()) return sc;
    if (count <= 0) return Status::Corruption("non-positive MG counter");
    mg.counters_.emplace(item, count);
  }
  return mg;
}

}  // namespace gems
