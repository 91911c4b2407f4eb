#include "src/sim/simulator.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace autonet {

void Simulator::SeqOverflow() {
  std::fprintf(stderr,
               "Simulator: event sequence space exhausted (2^39 schedules)\n");
  std::abort();
}

void Simulator::SlotOverflow() {
  std::fprintf(stderr,
               "Simulator: more than %u events pending simultaneously\n",
               kMaxSlot);
  std::abort();
}

std::uint32_t Simulator::AllocEventSlot() {
  if (!free_events_.empty()) {
    std::uint32_t slot = free_events_.back();
    free_events_.pop_back();
    return slot;
  }
  if (events_.size() > kMaxSlot) {
    SlotOverflow();
  }
  events_.emplace_back();
  return static_cast<std::uint32_t>(events_.size() - 1);
}

std::uint32_t Simulator::AllocTrainSlot() {
  if (!free_trains_.empty()) {
    std::uint32_t slot = free_trains_.back();
    free_trains_.pop_back();
    return slot;
  }
  if (trains_.size() > kMaxSlot) {
    SlotOverflow();
  }
  trains_.emplace_back();
  return static_cast<std::uint32_t>(trains_.size() - 1);
}

void Simulator::FreeEventSlot(std::uint32_t slot) {
  EventSlot& s = events_[slot];
  s.callback = nullptr;
  s.seq = 0;
  free_events_.push_back(slot);
}

void Simulator::FreeTrainSlot(std::uint32_t slot) {
  TrainSlot& t = trains_[slot];
  t.fn = nullptr;
  t.id_seq = 0;
  t.cancelled = false;
  t.parked = false;
  free_trains_.push_back(slot);
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
  if (when < now_) {
    when = now_;
    NotePastClamp();
  }
  std::uint64_t seq = NextSeq();
  std::uint32_t slot = AllocEventSlot();
  EventSlot& s = events_[slot];
  s.callback = std::move(callback);
  s.seq = seq;
  queue_.push(QEntry::Make(when, seq, slot, false), now_);
  ++live_count_;
  return EventId{seq, slot, false};
}

Simulator::EventId Simulator::ScheduleTrainRawAt(Tick start, std::uint64_t seq,
                                                 TrainFn fn, void* ctx,
                                                 std::uint64_t arg) {
  if (start < now_) {
    start = now_;
    NotePastClamp();
  }
  if (seq == 0) {
    seq = NextSeq();
  }
  std::uint32_t slot = AllocTrainSlot();
  TrainSlot& t = trains_[slot];
  t.fn = fn;
  t.ctx = ctx;
  t.arg = arg;
  t.id_seq = seq;
  t.cancelled = false;
  t.parked = false;
  queue_.push(QEntry::Make(start, seq, slot, true), now_);
  ++live_count_;
  return EventId{seq, slot, true};
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  if (id.train) {
    if (id.slot >= trains_.size()) {
      return false;
    }
    TrainSlot& t = trains_[id.slot];
    if (t.id_seq != id.seq || t.cancelled) {
      return false;  // already ended, or a different train owns the slot
    }
    if (t.parked) {
      // No queue entry exists to drain the slot later; free it now.  The
      // park already removed the train from live_count_.
      FreeTrainSlot(id.slot);
      return true;
    }
    // Inverted cancellation: flag the slot; the train's single queue entry
    // is discarded when it surfaces.  The slot is freed then, not here —
    // its handler may be the one currently executing.
    t.cancelled = true;
    --live_count_;
    return true;
  }
  if (id.slot >= events_.size()) {
    return false;
  }
  EventSlot& s = events_[id.slot];
  if (s.seq != id.seq) {
    return false;  // already fired, or the slot was recycled
  }
  // Release the callback (and whatever it captures) now; the queue entry
  // fails its generation check when it reaches the head.
  FreeEventSlot(id.slot);
  --live_count_;
  return true;
}

bool Simulator::EntryLive(const QEntry& entry) {
  if (entry.train()) {
    // A train owns its slot for as long as its queue entry exists, so the
    // slot cannot have been recycled under the entry.
    return !trains_[entry.slot()].cancelled;
  }
  return events_[entry.slot()].seq == entry.seq();
}

void Simulator::DispatchTop(QEntry entry) {
  queue_.pop();
  DispatchEntry(entry);
}

void Simulator::DispatchEntry(QEntry entry) {
#ifdef AUTONET_QUEUE_ORDER_CHECK
  // Under a tie chooser, same-tick seq order is deliberately permuted; the
  // audit only holds for the default order.
  if (!chooser_ && (entry.when < check_last_when_ ||
                    (entry.when == check_last_when_ &&
                     entry.seq() < check_last_seq_))) {
    std::fprintf(stderr, "ORDER VIOLATION: (%lld,%llu) after (%lld,%llu)\n",
                 (long long)entry.when, (unsigned long long)entry.seq(),
                 (long long)check_last_when_,
                 (unsigned long long)check_last_seq_);
    std::abort();
  }
  check_last_when_ = entry.when;
  check_last_seq_ = entry.seq();
#endif
  now_ = entry.when;
  dispatch_seq_ = entry.seq();
  ++events_processed_;
  if (!entry.train()) {
    EventSlot& s = events_[entry.slot()];
    Callback callback = std::move(s.callback);
    FreeEventSlot(entry.slot());
    --live_count_;
    callback();
    return;
  }

  // Train firing: run the handler, then push a fresh entry anchored at the
  // next firing time it names (the wheel makes pop and push O(1), so no
  // replace-top trick is needed).  The handler may cancel the train (even
  // destroy its owner), so re-reference the slot by index afterwards and
  // only then decide the slot's fate — with the entry already popped, a
  // mid-firing Cancel leaves slot disposal to us.
  std::uint32_t slot = entry.slot();
  const TrainSlot& firing = trains_[slot];
  TrainStep step = firing.fn(firing.ctx, firing.arg);
  TrainSlot& t = trains_[slot];
  if (t.cancelled) {
    FreeTrainSlot(slot);  // Cancel already adjusted live_count_
    return;
  }
  if (step.kind() == TrainStep::Kind::kPark) {
    // The slot stays owned by the train for a later ResumeTrain.  A parked
    // train is not pending.
    t.parked = true;
    --live_count_;
    return;
  }
  if (step.kind() == TrainStep::Kind::kDone) {
    --live_count_;
    FreeTrainSlot(slot);
    return;
  }
  Tick next_when = step.when;
  if (next_when < now_) {
    next_when = now_;
    NotePastClamp();
  }
  // A fresh sequence lands exactly where a plain event scheduled right after
  // the handler would have, which keeps event-chain-to-train conversions
  // timing-invisible.
  std::uint64_t next_seq = step.seq() != 0 ? step.seq() : NextSeq();
  queue_.push(QEntry::Make(next_when, next_seq, slot, true), now_);
}

void Simulator::RemoveOffQueueWork(OffQueueWork* work) {
  std::erase(off_queue_, work);
}

void Simulator::SetPerByteReference(bool on) {
  if (on && off_queue_allowed_) {
    for (OffQueueWork* work : off_queue_) {
      work->Requeue();
    }
  }
  per_byte_reference_ = on;
  off_queue_allowed_ = !chooser_ && !per_byte_reference_;
}

void Simulator::SetTieChooser(TieChooser chooser) {
  if (chooser && off_queue_allowed_) {
    for (OffQueueWork* work : off_queue_) {
      work->Requeue();
    }
  }
  chooser_ = std::move(chooser);
  off_queue_allowed_ = !chooser_ && !per_byte_reference_;
  if (!chooser_ && !ready_batch_.empty()) {
    // Return batched entries to the queue; they are live, at the current
    // tick, and seq-sorted, so default order resumes exactly.
    for (const QEntry& e : ready_batch_) {
      queue_.push(e, now_);
    }
    ready_batch_.clear();
  }
#ifdef AUTONET_QUEUE_ORDER_CHECK
  // Entries the chooser already permuted past may legitimately fire now;
  // restart the audit at the current tick.
  check_last_seq_ = 0;
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
          if (entry.train()) {
            FreeTrainSlot(entry.slot());
          }
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
    // have scheduled new ones, including reserved sequences that sort
    // before existing batch members.
    while (!queue_.empty()) {
      const QEntry entry = queue_.top(now_);
      if (!EntryLive(entry)) {
        queue_.pop();
        if (entry.train()) {
          FreeTrainSlot(entry.slot());
        }
        continue;
      }
      if (entry.when != when) {
        break;
      }
      queue_.pop();
      auto it = ready_batch_.end();
      while (it != ready_batch_.begin() && (it - 1)->seq() > entry.seq()) {
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
      } else if (ready_batch_[i].train()) {
        FreeTrainSlot(ready_batch_[i].slot());
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
      std::uint32_t slot = entry.slot();
      bool train = entry.train();
      queue_.pop();
      if (train) {
        FreeTrainSlot(slot);  // drained entry of a cancelled train
      }
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

bool Simulator::Step() {
  constexpr Tick kNoHorizon = std::numeric_limits<Tick>::max();
  if (chooser_) {
    return StepChosen(kNoHorizon);
  }
  return StepDefault(kNoHorizon);
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
    dispatch_seq_ = std::numeric_limits<std::uint64_t>::max();
  }
  return processed;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t processed = 0;
  while (processed < max_events && Step()) {
    ++processed;
  }
  return processed;
}

}  // namespace autonet
