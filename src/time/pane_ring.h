#ifndef GEMS_TIME_PANE_RING_H_
#define GEMS_TIME_PANE_RING_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "core/summary.h"

/// \file
/// Pane-based sliding windows over any mergeable summary: the window is
/// divided into fixed panes, each summarized independently; a query merges
/// the live panes. This is mergeability put to work *inside* one stream —
/// expired panes are dropped wholesale, giving sliding-window semantics
/// that register sketches (which cannot "forget" individual items) could
/// not otherwise offer. Window error adds one pane of time quantization.
///
/// Query cost is kept off the hot path by two caches:
///  - `closed_merged_` holds the merge of every *closed* pane (all but the
///    current one), maintained incrementally on rotation: closing a pane is
///    one merge, and only an expiry (at most once per rotation) rebuilds it
///    from the surviving closed panes. Queries between rotations never
///    re-merge the ring.
///  - `WindowSummary()` memoizes the full-window merge (closed cache + the
///    current pane) until the next mutation, so repeated queries between
///    updates are free. The memo lives behind a non-const method; concurrent
///    readers on the epoch-published path use the mutation-free
///    `MergedWindow()` instead.
///
/// Out-of-order input does not abort: a timestamp earlier than the newest
/// one seen is clamped into the current pane (one pane of extra time error
/// for the late item — a server must not crash on unsorted input).

namespace gems {

/// Sliding window of `num_panes` panes of `pane_width` time units over a
/// mergeable summary S.
template <typename S>
  requires MergeableSummary<S>
class PaneRing {
 public:
  /// Window covers num_panes * pane_width time units; all panes start as
  /// copies of `prototype` (merge-compatible by construction).
  PaneRing(const S& prototype, uint64_t pane_width, size_t num_panes)
      : prototype_(prototype),
        closed_merged_(prototype),
        window_memo_(prototype),
        pane_width_(pane_width),
        num_panes_(num_panes) {
    GEMS_CHECK(pane_width >= 1);
    GEMS_CHECK(num_panes >= 1);
  }

  /// Feeds one timestamped update; forwards `args` to S::Update. A
  /// timestamp earlier than the newest one seen lands in the current pane.
  template <typename... Args>
  void Update(uint64_t timestamp, Args&&... args) {
    Advance(timestamp);
    panes_.back().summary.Update(std::forward<Args>(args)...);
    memo_valid_ = false;
  }

  /// Advances time: opens a new current pane when `timestamp` crosses a
  /// pane boundary and expires panes older than the window. Late
  /// timestamps clamp to the newest one seen (no-op beyond the clamp).
  void Advance(uint64_t timestamp) {
    if (started_ && timestamp < last_timestamp_) timestamp = last_timestamp_;
    started_ = true;
    last_timestamp_ = timestamp;
    const uint64_t pane_id = timestamp / pane_width_;
    bool rotated = false;
    if (panes_.empty() || pane_id > panes_.back().id) {
      panes_.push_back(Pane{pane_id, prototype_});
      rotated = true;
    }
    // Live panes are ids in (pane_id - num_panes, pane_id]: the current
    // (partial) pane plus the num_panes - 1 full panes before it.
    bool expired = false;
    while (!panes_.empty() && Expired(panes_.front().id, pane_id)) {
      panes_.pop_front();
      expired = true;
    }
    if (expired) {
      RebuildClosed();
    } else if (rotated && panes_.size() >= 2) {
      // The pane that was current is now closed: fold it into the cache —
      // one merge per rotation instead of a full re-merge per query.
      MustMerge(closed_merged_, panes_[panes_.size() - 2].summary);
    }
    if (rotated || expired) memo_valid_ = false;
  }

  /// Merged summary of every pane overlapping the window ending at the
  /// most recent timestamp; the prototype (empty) if no data. Memoized:
  /// re-merged only after a mutation, so repeated queries between
  /// rotations are free. Single-writer only (it refreshes a cache) — the
  /// concurrent read path uses MergedWindow().
  const S& WindowSummary() {
    if (!memo_valid_) {
      window_memo_ = closed_merged_;
      if (!panes_.empty()) MustMerge(window_memo_, panes_.back().summary);
      memo_valid_ = true;
    }
    return window_memo_;
  }

  /// Mutation-free full-window merge: a copy of the closed-pane cache with
  /// the current pane folded in. Safe to call concurrently with other
  /// const methods (the epoch-published concurrent read path).
  S MergedWindow() const {
    S merged = closed_merged_;
    if (!panes_.empty()) MustMerge(merged, panes_.back().summary);
    return merged;
  }

  /// The merge of every closed (non-current) pane; the prototype when the
  /// ring holds at most the current pane. Const-safe for readers.
  const S& ClosedMerged() const { return closed_merged_; }

  /// The current (newest, partial) pane's summary, or nullptr before the
  /// first update. Const-safe for readers.
  const S* CurrentSummary() const {
    return panes_.empty() ? nullptr : &panes_.back().summary;
  }

  /// Advances to `timestamp` and exposes the pane it lands in for direct
  /// (batched) mutation — the segmented UpdateBatch entry point. The
  /// caller must only *add data* to the returned summary.
  S& SummaryAt(uint64_t timestamp) {
    Advance(timestamp);
    memo_valid_ = false;
    return panes_.back().summary;
  }

  /// Pane id of the current pane (meaningful once started()).
  uint64_t CurrentPaneId() const {
    return panes_.empty() ? 0 : panes_.back().id;
  }

  /// Merges another ring pane-by-pane (same pane_width and num_panes
  /// required), then re-expires against the later of the two clocks.
  Status Merge(const PaneRing& other) {
    if (pane_width_ != other.pane_width_ || num_panes_ != other.num_panes_) {
      return Status::InvalidArgument(
          "pane ring merge requires identical pane_width and num_panes");
    }
    for (const Pane& pane : other.panes_) {
      bool placed = false;
      for (Pane& mine : panes_) {
        if (mine.id == pane.id) {
          if (Status s = mine.summary.Merge(pane.summary); !s.ok()) return s;
          placed = true;
          break;
        }
      }
      if (!placed) {
        // Insert keeping ids ascending.
        auto it = panes_.begin();
        while (it != panes_.end() && it->id < pane.id) ++it;
        panes_.insert(it, pane);
      }
    }
    if (other.started_ &&
        (!started_ || other.last_timestamp_ > last_timestamp_)) {
      last_timestamp_ = other.last_timestamp_;
    }
    started_ = started_ || other.started_;
    if (started_) {
      const uint64_t pane_id = last_timestamp_ / pane_width_;
      while (!panes_.empty() && Expired(panes_.front().id, pane_id)) {
        panes_.pop_front();
      }
    }
    RebuildClosed();
    memo_valid_ = false;
    return Status::Ok();
  }

  /// Restore path: appends one pane with a strictly increasing id,
  /// maintaining the closed-pane cache incrementally. The deserializer
  /// finishes with Advance(last_timestamp) to restore the clock.
  Status AppendPane(uint64_t id, S summary) {
    if (!panes_.empty() && id <= panes_.back().id) {
      return Status::Corruption("pane ring: pane ids must strictly increase");
    }
    if (!panes_.empty()) {
      if (Status s = closed_merged_.Merge(panes_.back().summary); !s.ok()) {
        return s;
      }
    }
    panes_.push_back(Pane{id, std::move(summary)});
    started_ = true;
    memo_valid_ = false;
    return Status::Ok();
  }

  /// Iterates live panes oldest-first as (id, const S&).
  template <typename Fn>
  void ForEachPane(Fn&& fn) const {
    for (const Pane& pane : panes_) fn(pane.id, pane.summary);
  }

  size_t NumLivePanes() const { return panes_.size(); }
  uint64_t WindowSpan() const { return pane_width_ * num_panes_; }
  uint64_t pane_width() const { return pane_width_; }
  size_t num_panes() const { return num_panes_; }
  uint64_t last_timestamp() const { return last_timestamp_; }
  bool started() const { return started_; }
  const S& prototype() const { return prototype_; }

 private:
  struct Pane {
    uint64_t id;
    S summary;
  };

  /// Whether pane `id` lies outside the window whose current pane is
  /// `pane_id`; written so ids near UINT64_MAX cannot wrap.
  bool Expired(uint64_t id, uint64_t pane_id) const {
    return id <= pane_id && pane_id - id >= num_panes_;
  }

  static void MustMerge(S& into, const S& from) {
    // Panes are copies of one prototype, so parameter mismatches here are
    // programmer error, not runtime conditions.
    Status s = into.Merge(from);
    GEMS_CHECK(s.ok());
  }

  /// Rebuilds the closed-pane cache from every pane but the current one —
  /// the once-per-expiry slow path.
  void RebuildClosed() {
    closed_merged_ = prototype_;
    for (size_t i = 0; i + 1 < panes_.size(); ++i) {
      MustMerge(closed_merged_, panes_[i].summary);
    }
  }

  S prototype_;
  S closed_merged_;
  S window_memo_;
  bool memo_valid_ = false;
  bool started_ = false;
  uint64_t last_timestamp_ = 0;
  uint64_t pane_width_;
  size_t num_panes_;
  std::deque<Pane> panes_;
};

}  // namespace gems

#endif  // GEMS_TIME_PANE_RING_H_
