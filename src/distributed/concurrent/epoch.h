#ifndef GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_
#define GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/status.h"

/// \file
/// Epoch-versioned publication: the snapshot half of the wait-free
/// concurrent-sketch design (Rinberg et al., "Fast Concurrent Data
/// Sketches"), kept as two live copies of one value ("left-right"). An
/// epoch counter names the active copy; readers pin it, verify the epoch
/// did not move, and read without ever taking a lock. A write applies the
/// same mutation to both copies, one at a time: first to the standby,
/// then flips the epoch, then to the former active once its readers have
/// left. No write ever copies the whole value, and no reader ever blocks
/// another reader or is blocked by one; a reader can only delay a write,
/// which waits for the readers of the copy it is about to change.

namespace gems {

/// True when `value` shares its state with another handle, as a
/// copy-on-write AnySketch does with a fresh key's prototype or a held
/// snapshot. Mutating such a value would clone it first, so the writer
/// assigns it a shared handle to the other copy instead. Plain value types
/// never share.
template <typename T>
bool SharesState(const T& value) {
  if constexpr (requires { value.shares_state(); }) {
    return value.shares_state();
  } else {
    return false;
  }
}

/// Two-copy epoch-versioned value.
///
/// Concurrency contract:
///   - Write() calls must be externally serialized (the concurrent wrapper
///     calls it under its fold mutex).
///   - Read()/epoch() may be called from any number of threads at any
///     time. Read never blocks: it retries only when a write flipped the
///     epoch between its epoch load and its pin, so retries are bounded by
///     the write rate, not by other readers.
///   - A Read's `fn` must not call Write() on the same value: the write
///     waits for the active copy's readers, and that includes `fn`.
///
/// Write(fn) runs `fn` once per copy, so `fn` must be a deterministic
/// function of the copy's state: given equal copies it must leave equal
/// copies (a sketch's own RNG state replays identically), and it must not
/// consume its inputs (copy, never move, out of a captured value).
///
/// Memory-ordering argument (all epoch/pin operations are seq_cst):
///   - A write mutates the standby copy, then stores epoch e+1. A reader
///     that observes e+1 therefore observes the full mutation.
///   - Before mutating a copy, the writer waits for its pin count to drop
///     to zero. A verified reader's accesses happen-before its releasing
///     unpin, which the writer's pin load observes, so no copy is mutated
///     while a verified reader is inside it. A reader that pins a copy
///     after that load re-checks the epoch, finds it names the other copy,
///     and leaves without touching the value.
///   - A reader whose epoch re-check fails unpins without having touched
///     the value, so the transient pin is harmless.
template <typename T>
class EpochPublished {
 public:
  explicit EpochPublished(const T& initial)
      : buffers_{{initial}, {initial}} {}

  EpochPublished(const EpochPublished&) = delete;
  EpochPublished& operator=(const EpochPublished&) = delete;

  /// The current version number; advances by one per successful write.
  /// Starts at 0 (the initial value). Monotone, so callers can use it both
  /// as a staleness probe and as a "did anything change" ticket.
  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  /// Runs `fn(const T&)` against the pinned active copy and returns its
  /// result. Never blocks; retries only across concurrent epoch flips.
  template <typename Fn>
  auto Read(Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, const T&>;
    for (;;) {
      const uint64_t e = epoch_.load(std::memory_order_seq_cst);
      const Buffer& buffer = buffers_[e & 1];
      buffer.pins.fetch_add(1, std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) == e) {
        if constexpr (std::is_void_v<R>) {
          fn(static_cast<const T&>(buffer.value));
          buffer.pins.fetch_sub(1, std::memory_order_release);
          return;
        } else {
          R result = fn(static_cast<const T&>(buffer.value));
          buffer.pins.fetch_sub(1, std::memory_order_release);
          return result;
        }
      }
      // A write flipped the epoch under us; this copy may be getting
      // mutated. We never touched the value — drop the pin and go around
      // to the fresh epoch.
      buffer.pins.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Applies `fn(T&) -> Status` to both copies and advances the epoch by
  /// one. Steps: run `fn` on the standby copy; flip the epoch; wait for the
  /// former active copy's readers to leave; bring that copy up to date by
  /// running `fn` on it again, or, when it shares its state with another
  /// handle (SharesState), by assigning it the new active copy. If `fn`
  /// refuses the standby, the epoch does not move, the standby is re-synced
  /// from the active copy (a refusal may come after a partial mutation),
  /// and the refusal is returned; the two copies never diverge.
  template <typename Fn>
  Status Write(Fn&& fn) {
    const uint64_t e = epoch_.load(std::memory_order_relaxed);
    Buffer& active = buffers_[e & 1];
    Buffer& standby = buffers_[(e + 1) & 1];
    AwaitNoReaders(standby);
    if (Status s = fn(standby.value); !s.ok()) {
      standby.value = active.value;
      return s;
    }
    epoch_.store(e + 1, std::memory_order_seq_cst);
    AwaitNoReaders(active);
    // A replay cannot fail where the same mutation of an equal copy
    // succeeded; the assignment only guards that invariant.
    if (SharesState(active.value) || !fn(active.value).ok()) {
      active.value = standby.value;
    }
    return Status::Ok();
  }

 private:
  /// One copy of the value plus its reader pin count. Cache-line aligned
  /// so pin traffic on one copy never invalidates the other.
  struct alignas(64) Buffer {
    T value;
    mutable std::atomic<uint32_t> pins{0};
  };

  /// Waits (with backoff) until no reader pins `buffer`.
  static void AwaitNoReaders(const Buffer& buffer) {
    int spins = 0;
    while (buffer.pins.load(std::memory_order_seq_cst) != 0) {
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  }

  Buffer buffers_[2];
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_
