#ifndef GEMS_CORE_IO_H_
#define GEMS_CORE_IO_H_

#include <cstdint>
#include <span>

#include "common/bytes.h"

/// \file
/// Span-oriented serialization for the zero-copy stack.
///
/// The value-returning Serialize()/Deserialize() surface pays one heap
/// allocation and one full copy per envelope per hop, which is exactly the
/// overhead Friedman's sketch evaluation found dominating merge-heavy
/// workloads. The stack is built on the one codec in common/bytes.h
/// (re-exported here) instead:
///
///  - ByteSink: an append-into-caller-buffer writer. The caller owns the
///    destination vector (an arena, a network buffer being assembled, a
///    checkpoint body); many sketches can serialize into it back to back
///    with no per-sketch allocation.
///  - ByteWriter: a ByteSink that owns its vector. It has no encoders of
///    its own, so a writer-built envelope matches a sink-built one byte
///    for byte.
///  - ByteReader: the bounds-checked span cursor every decoder uses.
///    Combined with ByteSpan and the *View getters it walks nested
///    envelopes without copying them out.
///
/// Fixed-width values move a word at a time and arrays a column at a time
/// (PutU64s/GetU64s and their i64 and double twins): one bounds check and
/// one memcpy on little-endian hosts.

namespace gems {

/// Non-owning view of serialized bytes. The canonical parameter type for
/// every deserialization and wrap entry point: callers holding a vector, an
/// mmap'd file, or a slice of a ring buffer all pass it without copying.
using ByteSpan = std::span<const uint8_t>;

}  // namespace gems

#endif  // GEMS_CORE_IO_H_
