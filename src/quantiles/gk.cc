#include "quantiles/gk.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/wire.h"

namespace gems {

GreenwaldKhanna::GreenwaldKhanna(double epsilon) : epsilon_(epsilon) {
  GEMS_CHECK(epsilon > 0.0 && epsilon < 0.5);
  compress_period_ =
      std::max<uint64_t>(1, static_cast<uint64_t>(1.0 / (2.0 * epsilon)));
}

void GreenwaldKhanna::Update(double value) {
  ++count_;
  // Find insertion position (first tuple with larger value).
  const auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), value,
      [](double v, const Tuple& t) { return v < t.value; });

  uint64_t delta;
  if (it == tuples_.begin() || it == tuples_.end()) {
    delta = 0;  // New min or max is known exactly.
  } else {
    delta = static_cast<uint64_t>(
        std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
  }
  tuples_.insert(it, Tuple{value, 1, delta});

  if (count_ % compress_period_ == 0) Compress();
}

void GreenwaldKhanna::Compress() {
  if (tuples_.size() < 3) return;
  const uint64_t threshold = static_cast<uint64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
  std::vector<Tuple> kept;
  kept.reserve(tuples_.size());
  kept.push_back(tuples_.front());
  // Greedily merge tuple i into its successor when the invariant
  // g_i + g_{i+1} + delta_{i+1} <= 2*eps*n allows; the successor absorbs
  // the merged tuple's gap.
  for (size_t i = 1; i + 1 < tuples_.size(); ++i) {
    const Tuple& current = tuples_[i];
    Tuple& next = tuples_[i + 1];
    if (current.g + next.g + next.delta <= threshold) {
      next.g += current.g;
    } else {
      kept.push_back(current);
    }
  }
  kept.push_back(tuples_.back());
  tuples_ = std::move(kept);
}

double GreenwaldKhanna::Quantile(double q) const {
  GEMS_CHECK(count_ > 0);
  GEMS_CHECK(q >= 0.0 && q <= 1.0);
  const double target_rank = q * static_cast<double>(count_);
  const double allowed = epsilon_ * static_cast<double>(count_);

  uint64_t min_rank = 0;
  for (const Tuple& t : tuples_) {
    min_rank += t.g;
    const uint64_t max_rank = min_rank + t.delta;
    if (static_cast<double>(max_rank) >= target_rank - allowed &&
        static_cast<double>(min_rank) <= target_rank + allowed) {
      return t.value;
    }
    if (static_cast<double>(min_rank) > target_rank) return t.value;
  }
  return tuples_.back().value;
}

uint64_t GreenwaldKhanna::Rank(double value) const {
  uint64_t min_rank = 0;
  uint64_t best = 0;
  for (const Tuple& t : tuples_) {
    min_rank += t.g;
    if (t.value <= value) {
      best = min_rank + t.delta / 2;
    } else {
      break;
    }
  }
  return best;
}

void GreenwaldKhanna::PutPayload(ByteSink& sink) const {
  sink.PutDouble(epsilon_);
  sink.PutU64(count_);
  sink.PutVarint(tuples_.size());
  for (const Tuple& t : tuples_) {
    sink.PutDouble(t.value);
    sink.PutVarint(t.g);
    sink.PutVarint(t.delta);
  }
}

Result<GreenwaldKhanna> GreenwaldKhanna::GetPayload(ByteReader& r) {
  double epsilon;
  uint64_t count, num_tuples;
  if (Status se = r.GetDouble(&epsilon); !se.ok()) return se;
  if (Status sc = r.GetU64(&count); !sc.ok()) return sc;
  if (Status sn = r.GetVarint(&num_tuples); !sn.ok()) return sn;
  // A non-empty summary always keeps at least one tuple; Quantile reads
  // the last one.
  if (!(epsilon > 0.0 && epsilon < 0.5) || num_tuples > count ||
      (count != 0 && num_tuples == 0)) {
    return Status::Corruption("invalid GK header");
  }
  // A tuple is a double and two varints: at least ten bytes.
  if (Status sn = r.CheckColumn(num_tuples, 10); !sn.ok()) return sn;
  GreenwaldKhanna gk(epsilon);
  gk.count_ = count;
  gk.tuples_.resize(num_tuples);
  for (Tuple& t : gk.tuples_) {
    if (Status sv = r.GetDouble(&t.value); !sv.ok()) return sv;
    if (Status sg = r.GetVarint(&t.g); !sg.ok()) return sg;
    if (Status sd = r.GetVarint(&t.delta); !sd.ok()) return sd;
  }
  return gk;
}

}  // namespace gems
