#include "frequency/space_saving.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/check.h"
#include "core/params.h"
#include "core/wire.h"
#include "hash/murmur3.h"

namespace gems {

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  GEMS_CHECK(capacity >= 1);
}

SpaceSaving::SpaceSaving(const SpaceSaving& other)
    : capacity_(other.capacity_),
      total_(other.total_),
      slots_(other.slots_),
      index_(other.index_ ? std::make_unique<Index>(*other.index_) : nullptr) {
}

SpaceSaving& SpaceSaving::operator=(const SpaceSaving& other) {
  if (this != &other) *this = SpaceSaving(other);
  return *this;
}

Result<SpaceSaving> SpaceSaving::ForThreshold(double phi) {
  if (!(phi > 0.0 && phi <= 1.0)) {
    return Status::InvalidArgument(
        "SpaceSaving threshold phi must be in (0, 1]");
  }
  return SpaceSaving(SpaceSavingCapacityFor(phi));
}

size_t SpaceSaving::FindSlot(uint64_t item) const {
  size_t i = 0;
  for (; i < slots_.size(); ++i) {
    if (slots_[i].item == item) break;
  }
  return i;
}

size_t SpaceSaving::LookupSlot(uint64_t item) const {
  if (!index_) return FindSlot(item);
  const uint32_t id = index_->words[TableProbe(item)];
  return id == kNoSlot ? slots_.size() : id;
}

void SpaceSaving::Update(uint64_t item, int64_t weight) {
  GEMS_CHECK(weight >= 1);
  GEMS_CHECK(!__builtin_add_overflow(total_, weight, &total_));
  if (capacity_ > kIndexMinCapacity) {
    IndexedUpdate(item, weight);
    return;
  }

  if (slots_.size() < capacity_) {
    const size_t found = FindSlot(item);
    if (found < slots_.size()) {
      slots_[found].count += weight;
    } else {
      slots_.push_back(Slot{item, weight, 0});
    }
    return;
  }
  // Full: one pass finds the item or, failing that, the victim — the
  // minimum (smallest item id among tied counts — see Update's contract).
  // The victim test nests the rarely-true tie-break under a count test
  // the scan mostly fails.
  size_t weakest = 0;
  int64_t min_count = slots_[0].count;
  uint64_t min_item = slots_[0].item;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.item == item) {
      slots_[i].count += weight;
      return;
    }
    if (slot.count <= min_count &&
        (slot.count < min_count || slot.item < min_item)) {
      weakest = i;
      min_count = slot.count;
      min_item = slot.item;
    }
  }
  // The newcomer inherits the victim's count as error, in place.
  slots_[weakest] = Slot{item, min_count + weight, min_count};
}

// The same three cases as the scan above, with the table finding the slot
// and the min-count run naming the victim. Slot contents and positions come
// out exactly as the scan leaves them.
void SpaceSaving::IndexedUpdate(uint64_t item, int64_t weight) {
  if (!index_) Reindex();
  const size_t cell = TableProbe(item);
  const uint32_t found = Table()[cell];
  if (found != kNoSlot) {
    slots_[found].count += weight;  // Its run entry, if any, goes stale.
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back(Slot{item, weight, 0});
    if (slots_.size() > IndexSlots()) {
      Reindex();  // Grow the index; it covers the new slot.
      return;
    }
    Table()[cell] = static_cast<uint32_t>(slots_.size() - 1);
    return;
  }
  // The newcomer takes the empty cell its probe ended on before the
  // victim's cell is erased, so its chain is walked once. The slot already
  // holds the newcomer when TableErase re-homes entries, so an entry it
  // moves is judged by the newcomer's item, which is the one it indexes.
  const uint32_t weakest = PopVictim();
  const size_t victim_cell = TableProbe(slots_[weakest].item);
  const int64_t min_count = slots_[weakest].count;
  slots_[weakest] = Slot{item, min_count + weight, min_count};
  Table()[cell] = weakest;
  TableErase(victim_cell);
}

void SpaceSaving::Reindex() {
  const size_t n = slots_.size();
  // One spare slot so the next insert fits, capped where capacity_ fits;
  // a huge nominal capacity costs nothing until its slots exist.
  const size_t index_slots = std::bit_ceil(
      std::min(capacity_, std::max<size_t>(2 * kIndexMinCapacity, n + 1)));
  if (!index_) index_ = std::make_unique<Index>();
  index_->words.assign(4 * index_slots, kNoSlot);
  index_->run_next = index_->run_end = 0;
  uint32_t* table = Table();
  for (uint32_t id = 0; id < n; ++id) table[TableProbe(slots_[id].item)] = id;
}

// A run entry whose count has left run_count was hit, or evicted and
// refilled at run_count + w; counts only grow, so it never comes back.
uint32_t SpaceSaving::PopVictim() {
  Index& index = *index_;
  for (;;) {
    const uint32_t* run = Run();
    while (index.run_next < index.run_end) {
      const uint32_t id = run[index.run_next++];
      if (slots_[id].count == index.run_count) return id;
    }
    BuildRun();  // Never empty: the summary is full.
  }
}

// LSD radix sort of the ids by item, 8-bit digits, skipping every digit all
// the items share: linear, whatever the items are. Ties cannot occur, since
// tracked items are distinct.
void SpaceSaving::BuildRun() {
  Index& index = *index_;
  uint32_t* run = Run();
  uint32_t* scratch = Scratch();
  int64_t min_count = slots_[0].count;
  uint32_t n = 0;
  for (uint32_t id = 0; id < slots_.size(); ++id) {
    const int64_t count = slots_[id].count;
    if (count > min_count) continue;
    if (count < min_count) {
      min_count = count;
      n = 0;
    }
    run[n++] = id;
  }
  const uint64_t first = slots_[run[0]].item;
  uint64_t differ = 0;
  for (uint32_t i = 1; i < n; ++i) differ |= slots_[run[i]].item ^ first;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) == 0) continue;
    std::array<uint32_t, 256> offset{};
    for (uint32_t i = 0; i < n; ++i) {
      ++offset[(slots_[run[i]].item >> shift) & 0xff];
    }
    uint32_t sum = 0;
    for (uint32_t& o : offset) sum += std::exchange(o, sum);
    for (uint32_t i = 0; i < n; ++i) {
      scratch[offset[(slots_[run[i]].item >> shift) & 0xff]++] = run[i];
    }
    std::swap(run, scratch);
  }
  if (run != Run()) std::copy_n(run, n, Run());
  index.run_count = min_count;
  index.run_next = 0;
  index.run_end = n;
}

size_t SpaceSaving::TableHome(uint64_t item) const {
  return murmur3_detail::FMix64(item) & (2 * IndexSlots() - 1);
}

size_t SpaceSaving::TableProbe(uint64_t item) const {
  const size_t mask = 2 * IndexSlots() - 1;
  size_t cell = TableHome(item);
  const std::vector<uint32_t>& table = index_->words;
  while (table[cell] != kNoSlot && slots_[table[cell]].item != item) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

// Backward-shift deletion: later members of the probe run move up into the
// hole unless their home lies cyclically in (hole, candidate], so every
// remaining item stays reachable from its home without tombstones.
void SpaceSaving::TableErase(size_t cell) {
  uint32_t* table = Table();
  const size_t mask = 2 * IndexSlots() - 1;
  size_t hole = cell;
  for (size_t next = (hole + 1) & mask; table[next] != kNoSlot;
       next = (next + 1) & mask) {
    const size_t home = TableHome(slots_[table[next]].item);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table[hole] = table[next];
      hole = next;
    }
  }
  table[hole] = kNoSlot;
}

void SpaceSaving::UpdateBatch(std::span<const uint64_t> items) {
  size_t i = 0;
  while (i < items.size()) {
    const uint64_t item = items[i];
    size_t j = i + 1;
    while (j < items.size() && items[j] == item) ++j;
    Update(item, static_cast<int64_t>(j - i));
    i = j;
  }
}

void SpaceSaving::UpdateBatch(std::span<const uint64_t> items,
                              std::span<const int64_t> weights) {
  GEMS_CHECK(items.size() == weights.size());
  size_t i = 0;
  while (i < items.size()) {
    const uint64_t item = items[i];
    int64_t weight = weights[i];
    GEMS_CHECK(weight >= 1);
    size_t j = i + 1;
    for (; j < items.size() && items[j] == item; ++j) {
      // Each weight and the run's sum are checked as Update checks them.
      GEMS_CHECK(weights[j] >= 1);
      GEMS_CHECK(!__builtin_add_overflow(weight, weights[j], &weight));
    }
    Update(item, weight);
    i = j;
  }
}

int64_t SpaceSaving::Estimate(uint64_t item) const {
  const size_t i = LookupSlot(item);
  if (i < slots_.size()) return slots_[i].count;
  return MinCount();
}

gems::Estimate SpaceSaving::EstimateWithBounds(uint64_t item,
                                               double confidence) const {
  gems::Estimate e;
  const size_t i = LookupSlot(item);
  if (i < slots_.size()) {
    e.value = static_cast<double>(slots_[i].count);
    e.upper = e.value;
    e.lower = e.value - static_cast<double>(slots_[i].error);
  } else {
    e.value = static_cast<double>(MinCount());
    e.upper = e.value;
    e.lower = 0.0;
  }
  e.confidence = confidence;
  return e;
}

int64_t SpaceSaving::ErrorOf(uint64_t item) const {
  const size_t i = LookupSlot(item);
  return i < slots_.size() ? slots_[i].error : MinCount();
}

bool SpaceSaving::IsGuaranteedExact(uint64_t item) const {
  const size_t i = LookupSlot(item);
  return i < slots_.size() && slots_[i].error == 0;
}

int64_t SpaceSaving::MinCount() const {
  if (slots_.size() < capacity_ || slots_.empty()) return 0;
  // A live run entry holds the minimum (see PopVictim).
  if (index_) {
    const uint32_t* run = index_->words.data() + 2 * IndexSlots();
    for (uint32_t i = index_->run_next; i < index_->run_end; ++i) {
      if (slots_[run[i]].count == index_->run_count) return index_->run_count;
    }
  }
  int64_t min_count = slots_[0].count;
  for (const Slot& slot : slots_) min_count = std::min(min_count, slot.count);
  return min_count;
}

size_t SpaceSaving::IndexBytes() const {
  if (!index_) return 0;
  return sizeof(Index) + index_->words.capacity() * sizeof(uint32_t);
}

std::vector<uint64_t> SpaceSaving::HeavyHitterCandidates(double phi) const {
  const double threshold = phi * static_cast<double>(total_);
  std::vector<uint64_t> out;
  for (const Slot& slot : slots_) {
    if (static_cast<double>(slot.count) >= threshold) out.push_back(slot.item);
  }
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::Entries() const {
  return TopK(slots_.size());
}

std::vector<SpaceSaving::Entry> SpaceSaving::TopK(size_t k) const {
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(Entry{slot.item, slot.count, slot.error});
  }
  // Canonical order (stable across round trips) is a strict total order
  // over distinct items, so a partial sort of the first k is exactly the
  // head of the full sort.
  if (k < out.size()) {
    std::partial_sort(out.begin(), out.begin() + static_cast<ptrdiff_t>(k),
                      out.end(), Heavier());
    out.resize(k);
  } else {
    std::sort(out.begin(), out.end(), Heavier());
  }
  return out;
}

Status SpaceSaving::Merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument("SpaceSaving merge requires equal capacity");
  }
  // Counts sum to at most the total weight on each side (Deserialize
  // enforces it for images), so a total that fits bounds every summed count.
  int64_t merged_total = 0;
  if (__builtin_add_overflow(total_, other.total_, &merged_total)) {
    return Status::OutOfRange("SpaceSaving merge overflows the total weight");
  }
  // Combine: items in both get summed counts and errors; items in only one
  // side could have appeared up to the other side's MinCount times unseen,
  // which stays within the inherited-error accounting below. The peer's
  // slots fold into this side's through a small open-addressing table of
  // this side's items; peer-only items become new slots.
  // This side is put in canonical (count desc, item asc) order first; an
  // earlier merge usually left it so (every pane-ring cache and memo).
  if (!std::is_sorted(slots_.begin(), slots_.end(), Heavier())) {
    std::sort(slots_.begin(), slots_.end(), Heavier());
  }
  const size_t n = slots_.size();
  const size_t table_size = std::bit_ceil(2 * (n + 1));
  const size_t mask = table_size - 1;
  // [0, table_size): slot id + 1 per cell (0 = empty); then one touched
  // flag per existing slot. Small merges (the pane-ring caches) keep it on
  // the stack.
  constexpr size_t kStackWords = 512;
  std::array<uint32_t, kStackWords> stack_words;
  std::vector<uint32_t> heap_words;
  uint32_t* table = stack_words.data();
  if (table_size + n > kStackWords) {
    heap_words.resize(table_size + n);
    table = heap_words.data();
  }
  std::fill_n(table, table_size + n, 0);
  uint32_t* touched = table + table_size;
  const auto home = [mask](uint64_t item) {
    return murmur3_detail::FMix64(item) & mask;
  };
  for (size_t id = 0; id < n; ++id) {
    size_t cell = home(slots_[id].item);
    while (table[cell] != 0) cell = (cell + 1) & mask;
    table[cell] = static_cast<uint32_t>(id + 1);
  }
  // Touched and new slots, once the fold is done: at most one per peer
  // slot, on the stack for small peers.
  constexpr size_t kStackSlots = 64;
  std::array<Slot, kStackSlots> stack_slots;
  std::vector<Slot> heap_slots;
  Slot* moved = stack_slots.data();
  if (other.slots_.size() > kStackSlots) {
    heap_slots.resize(other.slots_.size());
    moved = heap_slots.data();
  }
  size_t num_moved = 0;
  for (const Slot& peer : other.slots_) {
    size_t cell = home(peer.item);
    while (table[cell] != 0 && slots_[table[cell] - 1].item != peer.item) {
      cell = (cell + 1) & mask;
    }
    if (table[cell] == 0) {
      moved[num_moved++] = peer;
      continue;
    }
    Slot& mine = slots_[table[cell] - 1];
    mine.count += peer.count;
    mine.error += peer.error;
    touched[table[cell] - 1] = 1;
  }
  // Keep the `capacity_` heaviest in canonical order; surviving items are
  // unchanged (their counts remain valid overestimates of their true
  // totals). Untouched slots are still in order: sort only the touched and
  // new ones, then merge the two runs in place from the back. Canonical
  // order is a strict total order over distinct items, so the result does
  // not depend on how it is reached.
  size_t kept = 0;
  for (size_t id = 0; id < n; ++id) {
    if (touched[id]) {
      moved[num_moved++] = slots_[id];
    } else {
      slots_[kept++] = slots_[id];
    }
  }
  std::sort(moved, moved + num_moved, Heavier());
  slots_.reserve(kept + num_moved);  // Exact: caches live long.
  slots_.resize(kept + num_moved);
  size_t a = kept;
  size_t b = num_moved;
  for (size_t out = slots_.size(); b > 0;) {
    // The lighter of the two runs' tails goes last.
    if (a > 0 && Heavier()(moved[b - 1], slots_[a - 1])) {
      slots_[--out] = slots_[--a];
    } else {
      slots_[--out] = moved[--b];
    }
  }
  if (slots_.size() > capacity_) slots_.resize(capacity_);
  index_.reset();  // Stale; the next Update rebuilds it.
  total_ = merged_total;
  return Status::Ok();
}

Status SpaceSaving::MergeFromView(const View<SpaceSaving>& view) {
  Result<SpaceSaving> other = view.Materialize();
  if (!other.ok()) return other.status();
  return Merge(other.value());
}

std::vector<uint8_t> SpaceSaving::Serialize() const {
  std::vector<uint8_t> out;
  ByteSink sink(&out);
  SerializeTo(sink);
  return out;
}

void SpaceSaving::SerializeTo(ByteSink& sink) const {
  EnvelopeBuilder env(sink, kTypeId);
  sink.PutVarint(capacity_);
  sink.PutI64(total_);
  sink.PutVarint(slots_.size());
  // Canonical (entry) order so identical summaries serialize identically.
  for (const Entry& entry : Entries()) {
    sink.PutU64(entry.item);
    sink.PutI64(entry.count);
    sink.PutI64(entry.error);
  }
}

Result<SpaceSaving> SpaceSaving::Deserialize(
    std::span<const uint8_t> bytes) {
  Result<ByteReader> payload = OpenEnvelope(SketchTypeId::kSpaceSaving, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r = std::move(payload).value();
  uint64_t capacity, num_entries;
  int64_t total;
  if (Status sc = r.GetVarint(&capacity); !sc.ok()) return sc;
  if (Status st = r.GetI64(&total); !st.ok()) return st;
  if (Status se = r.GetVarint(&num_entries); !se.ok()) return se;
  // Each entry is three 8-byte fields; checked before the reserve below.
  if (capacity == 0 || num_entries > capacity || total < 0 ||
      num_entries > r.remaining() / (3 * sizeof(uint64_t))) {
    return Status::Corruption("invalid SpaceSaving header");
  }
  SpaceSaving ss(capacity);
  ss.total_ = total;
  ss.slots_.reserve(num_entries);
  int64_t count_sum = 0;
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t item;
    int64_t count, error;
    if (Status si = r.GetU64(&item); !si.ok()) return si;
    if (Status sn = r.GetI64(&count); !sn.ok()) return sn;
    if (Status sx = r.GetI64(&error); !sx.ok()) return sx;
    if (count <= 0 || error < 0 || error > count) {
      return Status::Corruption("invalid SpaceSaving entry");
    }
    // Every unit of weight lands in at most one count.
    if (__builtin_add_overflow(count_sum, count, &count_sum) ||
        count_sum > total) {
      return Status::Corruption("SpaceSaving counts exceed the total weight");
    }
    ss.slots_.push_back(Slot{item, count, error});
  }
  // Tracked items are distinct by construction; a repeated item would make
  // lookups answer for its first copy only and break the index.
  std::vector<uint64_t> items;
  items.reserve(ss.slots_.size());
  for (const Slot& slot : ss.slots_) items.push_back(slot.item);
  std::sort(items.begin(), items.end());
  if (std::adjacent_find(items.begin(), items.end()) != items.end()) {
    return Status::Corruption("duplicate SpaceSaving item");
  }
  return ss;
}

}  // namespace gems
