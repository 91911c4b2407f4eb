// Helpers for the global 80 ns slot grid.  Slot i spans [i*80, (i+1)*80) ns;
// every 256th slot (i % 256 == 0) is a flow-control slot, the rest are data
// slots (section 6.1).  All channels share one slot phase — a simplification
// documented in DESIGN.md; the FIFO-sizing worst case depends only on the
// flow-slot *period*, which is preserved.
#ifndef SRC_LINK_SLOTS_H_
#define SRC_LINK_SLOTS_H_

#include "src/common/time.h"

namespace autonet {

constexpr Tick SlotStart(std::int64_t index) { return index * kSlotNs; }
constexpr bool IsFlowSlot(std::int64_t index) {
  return index % kFlowSlotPeriod == 0;
}

// Start time of the first flow-control slot at or after t.
constexpr Tick NextFlowSlotAt(Tick t) {
  std::int64_t index = (t + kSlotNs - 1) / kSlotNs;  // first slot start >= t
  std::int64_t rem = index % kFlowSlotPeriod;
  if (rem != 0) {
    index += kFlowSlotPeriod - rem;
  }
  return SlotStart(index);
}

// Start time of the first *data* slot at or after t (skips flow slots).
constexpr Tick NextDataSlotAt(Tick t) {
  std::int64_t index = (t + kSlotNs - 1) / kSlotNs;
  if (IsFlowSlot(index)) {
    ++index;
  }
  return SlotStart(index);
}

// Start time of the first data slot strictly after t.
constexpr Tick NextDataSlotAfter(Tick t) { return NextDataSlotAt(t + 1); }

// The slot index n data slots on from `index` (index >= 0, n >= 0): the
// n-th data slot after it, `index` itself for n == 0.  Data slots ranked
// from 0 are 1..255, 257..511, ..., so rank k is slot k + k / 255 + 1, and
// the first data slot after `index` has rank index - index / 256.
constexpr std::int64_t AdvanceDataSlots(std::int64_t index, std::int64_t n) {
  if (n == 0) {
    return index;
  }
  std::int64_t rank = index - index / kFlowSlotPeriod + n - 1;
  return rank + rank / (kFlowSlotPeriod - 1) + 1;
}
// The index of the first flow slot after `index` (index >= 0): a run of
// data slots from a data slot `index` on is consecutive up to it.
constexpr std::int64_t NextFlowSlotIndex(std::int64_t index) {
  return (index / kFlowSlotPeriod + 1) * kFlowSlotPeriod;
}
// The number of data slots with index in [from, to), 0 <= from <= to.
constexpr std::int64_t DataSlotsBetween(std::int64_t from, std::int64_t to) {
  auto flow_slots_before = [](std::int64_t i) {
    return (i + kFlowSlotPeriod - 1) / kFlowSlotPeriod;
  };
  return (to - from) - (flow_slots_before(to) - flow_slots_before(from));
}
// The index of the first slot that starts after the dispatch position at
// `now`: slots starting before now lie behind it, and so does the one
// starting at now if `now_passed` (its firing's position is passed).
constexpr std::int64_t FirstSlotAfter(Tick now, bool now_passed) {
  std::int64_t index = (now + kSlotNs - 1) / kSlotNs;
  return now % kSlotNs == 0 && now_passed ? index + 1 : index;
}

}  // namespace autonet

#endif  // SRC_LINK_SLOTS_H_
