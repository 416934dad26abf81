#ifndef GEMS_FREQUENCY_SPACE_SAVING_H_
#define GEMS_FREQUENCY_SPACE_SAVING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/io.h"
#include "core/view.h"

/// \file
/// SpaceSaving (Metwally, Agrawal & El Abbadi 2005): the deterministic
/// top-k/heavy-hitter sketch. Tracks exactly k items; a new item evicts the
/// current minimum and inherits its count (recorded as that item's error).
/// Guarantees: every item with true count > N/k is tracked; estimates
/// overestimate by at most the recorded per-item error <= N/k.
/// The paper later notes its equivalence to Misra-Gries (counts differ by
/// exactly the MG decrement total) — a property the tests verify.

namespace gems {

/// SpaceSaving summary tracking `capacity` items.
///
/// Storage is one flat unsorted vector of (item, count, error) slots: a
/// new item is appended, an evicted slot is overwritten in place, and
/// Merge leaves the slots in canonical (count desc, item asc) order. How a
/// slot is found depends on the capacity, and never changes the slots
/// themselves:
///
/// - capacity <= 128: a linear scan for the item; once the summary is
///   full, the same pass also tracks the eviction victim, so a miss costs
///   one scan. Over a contiguous ~24-byte-per-slot array this beats any
///   index: no side structure to allocate, copy or keep in step.
///   The stream engine's TOP-K panes (64-88 slots, copied and merged on
///   every pane rotation, ~10^5 live summaries) sit here; indexing them
///   too measured 4-11% lower engine throughput and +1.8 MiB peak RSS
///   (gemsbench stream_multiquery, 4-vCPU x86).
/// - capacity > 128: an index built on first Update — an open-addressing
///   hash table item -> slot (linear probing, backward-shift deletion,
///   load <= 1/2) and a min-count run: the ids of every slot whose count
///   equals the current minimum m, sorted by item, with a cursor. A lookup
///   is O(1) expected. A hit only adds to the count and leaves the run
///   alone. A miss pops run entries from the cursor, skips any whose count
///   is no longer m, and evicts the first one still at m. When the run is
///   used up, one pass over the slots collects the new minimum's slots and
///   an LSD radix sort orders them by item. Under SpaceSaving's own churn
///   the minimum level is wide (each eviction refills a slot at m + w, the
///   next level up), so that O(k) rebuild is shared by many evictions; a
///   stream of weights that leaves one slot per level pays it per miss. At
///   the registry's 1,024 slots on a Zipf(1.1) stream the scans cost
///   ~1.5 us per item and the index ~0.06 us (gemsbench sketch_ingest,
///   4-vCPU x86).
///
/// The run is exact, not a heuristic. Counts only grow while the index
/// lives, and a newcomer starts at m + w with w >= 1, so while any run
/// entry is live the live entries are exactly the slots at the minimum
/// count, still in item order: the first one is the scan's victim
/// (minimum count, then smallest item; tracked items are distinct, so the
/// victim is unique). Both regimes therefore pick the same victim, and
/// slots are overwritten in place and appended in the same order, so they
/// produce byte-identical state. The index is one lazily allocated block
/// behind a single pointer, so a summary that never needs it (the ~10^5
/// small ones, a merge target, a restored checkpoint) pays 8 bytes for it.
/// Merge and Deserialize drop the index; the next Update rebuilds it in
/// O(k), and the next eviction rebuilds the run.
///
/// Merge folds the peer's slots into this side's through a throwaway
/// open-addressing table (item -> slot), so it never sorts by item. This
/// side is first put in canonical order, which the stream engine's
/// pane-ring caches already have from an earlier merge; then only the
/// touched and new slots are sorted and merged with the untouched,
/// still-ordered run. Canonical order is a strict total order over
/// distinct items, so the result is the same as one full sort.
class SpaceSaving {
 public:
  /// Wire-format type tag, for View<SpaceSaving> wrapping.
  static constexpr SketchTypeId kTypeId = SketchTypeId::kSpaceSaving;

  explicit SpaceSaving(size_t capacity);

  /// Advisor-driven constructor: capacity ceil(1/phi) so every item with
  /// frequency > phi*N is guaranteed tracked. kInvalidArgument if `phi` is
  /// outside (0, 1].
  static Result<SpaceSaving> ForThreshold(double phi);

  SpaceSaving(const SpaceSaving& other);
  SpaceSaving& operator=(const SpaceSaving& other);
  SpaceSaving(SpaceSaving&&) = default;
  SpaceSaving& operator=(SpaceSaving&&) = default;

  /// Adds `weight` (>= 1) occurrences of `item`; a total weight past
  /// INT64_MAX aborts. On eviction, ties on the minimum count break toward
  /// the smallest item id — a content-determined rule, so two summaries
  /// holding the same logical state evolve identically regardless of the
  /// order their slots were populated in (e.g. one restored from a
  /// checkpoint, one that kept running).
  void Update(uint64_t item, int64_t weight = 1);

  /// Batched ingest: coalesces runs of equal adjacent items into one
  /// weighted update, so hot items on skewed streams pay one slot scan per
  /// run instead of one per occurrence. State is byte-identical to
  /// per-item Update() (a weight-r update is equivalent to r unit updates
  /// in every tracked/untracked/eviction case).
  void UpdateBatch(std::span<const uint64_t> items);

  /// Weighted batched ingest; `weights` must parallel `items` and every
  /// weight must be >= 1. Runs of equal adjacent items are coalesced. A
  /// bad weight or an overflowing total aborts, as item by item.
  void UpdateBatch(std::span<const uint64_t> items,
                   std::span<const int64_t> weights);

  /// Overestimate of the item's count; untracked items get the current
  /// minimum count (the correct upper bound for them).
  int64_t Estimate(uint64_t item) const;

  /// Point estimate with the deterministic SpaceSaving envelope:
  /// [count - error, count] for tracked items, [0, MinCount()] for
  /// untracked ones. The bound is exact, so `confidence` is reported
  /// as-is.
  gems::Estimate EstimateWithBounds(uint64_t item,
                                    double confidence = 0.95) const;

  /// Guaranteed overestimation error for a tracked item (0 if untracked or
  /// never evicted anyone).
  int64_t ErrorOf(uint64_t item) const;

  /// True if the item's estimate is *guaranteed* correct (error == 0).
  bool IsGuaranteedExact(uint64_t item) const;

  /// Items with estimated count >= phi * N (no false negatives).
  std::vector<uint64_t> HeavyHitterCandidates(double phi) const;

  /// Tracked items (item, count, error), largest count first.
  struct Entry {
    uint64_t item;
    int64_t count;
    int64_t error;
  };
  std::vector<Entry> Entries() const;

  /// Top-k by estimated count: the first min(k, NumTracked()) of Entries(),
  /// by partial sort.
  std::vector<Entry> TopK(size_t k) const;

  /// Merge preserving the SpaceSaving error guarantees (combined counts and
  /// errors added for shared items; then truncated back to capacity, with
  /// the truncation folded into the kept items' admissible error). Leaves
  /// the slots in canonical (count desc, item asc) order.
  Status Merge(const SpaceSaving& other);

  /// Merges a wrapped serialized peer. The merge rebuilds the tracked set
  /// (fold, order, truncate), so this materializes one temporary from
  /// the view (skipping only the caller-side envelope copy) —
  /// byte-identical to Merge(*view.Materialize()) by construction.
  Status MergeFromView(const View<SpaceSaving>& view);

  int64_t TotalWeight() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t NumTracked() const { return slots_.size(); }
  int64_t MinCount() const;
  /// Heap bytes of the slot index (capacity > 128 only; 0 until the first
  /// Update builds it, and again after Merge or Deserialize).
  size_t IndexBytes() const;

  std::vector<uint8_t> Serialize() const;
  /// Appends the wire envelope into a caller-owned buffer; byte-identical
  /// to Serialize().
  void SerializeTo(ByteSink& sink) const;
  /// kCorruption on a malformed image, including one that lists an item
  /// twice.
  static Result<SpaceSaving> Deserialize(std::span<const uint8_t> bytes);

 private:
  struct Slot {
    uint64_t item;
    int64_t count;
    int64_t error;
  };

  /// Canonical order: count desc, then item asc (for Slot and Entry).
  struct Heavier {
    template <typename T>
    bool operator()(const T& a, const T& b) const {
      if (a.count != b.count) return a.count > b.count;
      return a.item < b.item;
    }
  };

  /// Index of `item`'s slot, or slots_.size() if untracked, by scan.
  size_t FindSlot(uint64_t item) const;
  /// FindSlot answered by the index when one is built.
  size_t LookupSlot(uint64_t item) const;

  /// Capacities above this use the hash + min-count run index (see class
  /// comment).
  static constexpr size_t kIndexMinCapacity = 128;

  /// Update() for capacity_ > kIndexMinCapacity; total_ already counted.
  void IndexedUpdate(uint64_t item, int64_t weight);

  /// (Re)builds the table from slots_, sized for at least one more slot,
  /// and empties the run.
  void Reindex();

  /// The index. `words`, for an index sized for `n` slots (n a power of
  /// two): [0, 2n) hash table of slot ids (kNoSlot = empty), [2n, 3n) the
  /// min-count run, [3n, 4n) radix-sort scratch. The table matches slots_
  /// whenever index_ is set; run entries may be stale (see PopVictim).
  struct Index {
    std::vector<uint32_t> words;
    int64_t run_count = 0;  // The minimum count the run was built at.
    uint32_t run_next = 0;  // Cursor: the first entry not yet popped.
    uint32_t run_end = 0;   // Entries in the run; used up at run_next.
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  size_t IndexSlots() const { return index_->words.size() / 4; }
  uint32_t* Table() { return index_->words.data(); }
  uint32_t* Run() { return index_->words.data() + 2 * IndexSlots(); }
  uint32_t* Scratch() { return index_->words.data() + 3 * IndexSlots(); }
  size_t TableHome(uint64_t item) const;
  /// Table position holding `item`, or of the empty cell ending its probe.
  size_t TableProbe(uint64_t item) const;
  void TableErase(size_t cell);
  /// The eviction victim (minimum count, then smallest item), popped from
  /// the run; rebuilds the run when it is used up. Needs a full summary.
  uint32_t PopVictim();
  /// Fills the run with the ids of the minimum-count slots, by item.
  void BuildRun();

  size_t capacity_;
  int64_t total_ = 0;
  std::vector<Slot> slots_;
  std::unique_ptr<Index> index_;
};

}  // namespace gems

#endif  // GEMS_FREQUENCY_SPACE_SAVING_H_
