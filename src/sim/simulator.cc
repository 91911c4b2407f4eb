#include "src/sim/simulator.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace autonet {

void Simulator::SeqOverflow() {
  std::fprintf(stderr,
               "Simulator: event sequence space exhausted (2^60 schedules)\n");
  std::abort();
}

void Simulator::SlotOverflow() {
  std::fprintf(stderr,
               "Simulator: more than %u events pending simultaneously\n",
               kMaxSlot);
  std::abort();
}

std::uint32_t Simulator::AllocSlot(std::uint64_t id) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() > kMaxSlot) {
      SlotOverflow();
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].id = id;
  return slot;
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.id = 0;
  s.queued = 0;
  s.fn = nullptr;
  s.callback = nullptr;
  free_slots_.push_back(slot);
}

void Simulator::NotePastClamp() {
  // Scheduling in the past is tolerated (clamped to now) but counted, so a
  // component that does it systematically is visible in telemetry.  The
  // counter is created lazily to keep clean runs' metric snapshots free of
  // it.
  if (past_clamped_ == nullptr) {
    past_clamped_ = metrics_.GetCounter("sim.schedule_past_clamped");
  }
  past_clamped_->Increment();
}

Simulator::EventId Simulator::ScheduleAt(Tick when, Callback callback) {
  std::uint64_t seq = NextSeq();
  std::uint32_t slot = AllocSlot(seq);
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  // The creation seq doubles as the order's position (rank 0 or 3).
  if (when < now_) {
    when = now_;
    NotePastClamp();
  }
  Enqueue(s, slot, when, (when > now_ ? kRankPlain : kRankNow) | seq);
  return EventId{seq, slot};
}

Simulator::EventId Simulator::ScheduleTrainRawAt(Tick start, Order order,
                                                 TrainFn fn, void* ctx,
                                                 std::uint64_t arg) {
  std::uint64_t id = NextSeq();
  std::uint32_t slot = AllocSlot(id);
  Slot& s = slots_[slot];
  s.fn = fn;
  s.ctx = ctx;
  s.arg = arg;
  Enqueue(s, slot, start, order);
  return EventId{id, slot};
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size() ||
      slots_[id.slot].id != id.seq) {
    return false;  // already ended, or a different event owns the slot
  }
  // Free the slot (and whatever a callback captures) now: its queue entry,
  // if any, fails the liveness check when it surfaces.
  FreeSlot(id.slot);
  return true;
}

void Simulator::DispatchTop(QEntry entry) {
  queue_.pop();
  DispatchEntry(entry);
}

void Simulator::DispatchEntry(QEntry entry) {
#ifdef AUTONET_QUEUE_ORDER_CHECK
  // Under a tie chooser, same-tick order is deliberately permuted; the
  // audit only holds for the default order.
  if (!chooser_ && (entry.when < check_last_when_ ||
                    (entry.when == check_last_when_ &&
                     entry.order < check_last_order_))) {
    std::fprintf(stderr,
                 "ORDER VIOLATION: (%lld,%#llx) after (%lld,%#llx)\n",
                 (long long)entry.when, (unsigned long long)entry.order,
                 (long long)check_last_when_,
                 (unsigned long long)check_last_order_);
    std::abort();
  }
  check_last_when_ = entry.when;
  check_last_order_ = entry.order;
#endif
  now_ = entry.when;
  dispatch_order_ = entry.order;
  ++events_processed_;
  std::uint32_t slot = entry.slot();
  Slot& s = slots_[slot];
  if (s.fn == nullptr) {
    Callback callback = std::move(s.callback);
    FreeSlot(slot);
    callback();
    return;
  }

  // Train firing: run the handler, then push a fresh entry anchored at the
  // next firing time it names (the wheel makes pop and push O(1), so no
  // replace-top trick is needed).  The handler may cancel the train (even
  // destroy its owner), which frees the slot and lets a new schedule reuse
  // it, so re-reference the slot by index afterwards and stop if it no
  // longer holds this train.
  std::uint64_t id = s.id;
  TrainStep step = s.fn(s.ctx, s.arg);
  Slot& t = slots_[slot];
  if (t.id != id) {
    return;  // cancelled: Cancel already freed the slot
  }
  if (step.kind() == TrainStep::Kind::kDone) {
    FreeSlot(slot);
    return;
  }
  // Order 0 lands exactly where a plain event scheduled right after the
  // handler would have, which keeps event-chain-to-train conversions
  // timing-invisible.
  Enqueue(t, slot, step.when, step.order());
}

void Simulator::RemoveOffQueueWork(OffQueueWork* work) {
  std::erase(off_queue_, work);
}

void Simulator::SetOffQueueAllowed(bool allowed) {
  if (off_queue_allowed_ && !allowed) {
    for (OffQueueWork* work : off_queue_) {
      work->Requeue();
    }
  }
  off_queue_allowed_ = allowed;
}

void Simulator::SetPerByteReference(bool on) {
  SetOffQueueAllowed(!chooser_ && !on);
  per_byte_reference_ = on;
}

void Simulator::SetTieChooser(TieChooser chooser) {
  SetOffQueueAllowed(!chooser && !per_byte_reference_);
  chooser_ = std::move(chooser);
  if (!chooser_ && !ready_batch_.empty()) {
    // Return batched entries to the queue; they are live, at the current
    // tick, and in order, so default order resumes exactly.
    for (const QEntry& e : ready_batch_) {
      queue_.push(e, now_);
    }
    ready_batch_.clear();
  }
#ifdef AUTONET_QUEUE_ORDER_CHECK
  // Entries the chooser already permuted past may legitimately fire now;
  // restart the audit at the current tick.
  check_last_order_ = 0;
#endif
}

bool Simulator::StepChosen(Tick horizon) {
  for (;;) {
    if (ready_batch_.empty()) {
      // Anchor the batch at the earliest live entry's tick.
      for (;;) {
        if (queue_.empty()) {
          return false;
        }
        const QEntry entry = queue_.top(now_);
        if (!EntryLive(entry)) {
          queue_.pop();
          continue;
        }
        if (entry.when > horizon) {
          return false;
        }
        queue_.pop();
        ready_batch_.push_back(entry);
        break;
      }
    }
    const Tick when = ready_batch_.front().when;
    if (when > horizon) {
      return false;  // batch anchored beyond a (smaller) later horizon
    }
    // Merge every queued entry at the batch tick: the previous dispatch may
    // have scheduled new ones, including arrivals and pumps that sort
    // before existing batch members.
    while (!queue_.empty()) {
      const QEntry entry = queue_.top(now_);
      if (!EntryLive(entry)) {
        queue_.pop();
        continue;
      }
      if (entry.when != when) {
        break;
      }
      queue_.pop();
      auto it = ready_batch_.end();
      while (it != ready_batch_.begin() && (it - 1)->order > entry.order) {
        --it;
      }
      ready_batch_.insert(it, entry);
    }
    // Drop members cancelled since they were pulled (an earlier choice this
    // tick may have cancelled them).
    std::size_t w = 0;
    for (std::size_t i = 0; i < ready_batch_.size(); ++i) {
      if (EntryLive(ready_batch_[i])) {
        ready_batch_[w++] = ready_batch_[i];
      }
    }
    ready_batch_.resize(w);
    if (ready_batch_.empty()) {
      continue;  // the whole tick was cancelled; anchor a new one
    }
    std::uint32_t pick = 0;
    if (ready_batch_.size() > 1) {
      pick = chooser_(when, static_cast<std::uint32_t>(ready_batch_.size()));
      if (pick >= ready_batch_.size()) {
        pick = 0;
      }
    }
    QEntry chosen = ready_batch_[pick];
    ready_batch_.erase(ready_batch_.begin() + pick);
    DispatchEntry(chosen);
    return true;
  }
}

bool Simulator::StepDefault(Tick horizon) {
  while (!queue_.empty()) {
    const QEntry& entry = queue_.top(now_);
    if (!EntryLive(entry)) {
      // A stale head may carry any timestamp (including one beyond the
      // horizon); discard it regardless so it never blocks the scan.
      queue_.pop();
      continue;
    }
    if (entry.when > horizon) {
      return false;
    }
    DispatchTop(entry);
    return true;
  }
  return false;
}

std::uint64_t Simulator::RunUntil(Tick t) {
  std::uint64_t processed = 0;
  // Re-test the chooser every iteration: a dispatched callback may install
  // or remove it mid-run (the interleaving explorer does exactly that).
  for (;;) {
    bool advanced = chooser_ ? StepChosen(t) : StepDefault(t);
    if (!advanced) {
      break;
    }
    ++processed;
  }
  if (now_ <= t) {
    now_ = t;
    dispatch_order_ = std::numeric_limits<Order>::max();
  }
  return processed;
}

std::uint64_t Simulator::Run() {
  constexpr Tick kNoHorizon = std::numeric_limits<Tick>::max();
  std::uint64_t processed = 0;
  while (chooser_ ? StepChosen(kNoHorizon) : StepDefault(kNoHorizon)) {
    ++processed;
  }
  return processed;
}

}  // namespace autonet
