// Deterministic discrete-event simulation engine.  All network components —
// link symbol pumps, switch scheduling engines, Autopilot timer tasks — run
// as events on one simulator instance, so the data plane and the control
// plane share a single clock, as they do in the real Autonet.
//
// Determinism: events fire in (time, order) order, and all randomness
// flows through seeded Rng instances, so every run is exactly reproducible.
// An entry's order ranks it among the entries of its tick by class, then
// by a position within the class that its owner can compute ahead of time
// (see Order below), so a component may commit a run of future firings
// without drawing anything from a global counter.
//
// Hot-path layout: the event queue holds 24-byte POD entries — a timing
// wheel for the near-future slot grid over a 4-ary overflow heap for far
// timers; callbacks and train state live in one slab pool indexed by those
// entries, so queue moves never touch a std::function and the
// never-cancelled event touches no hash table.  Plain events and trains
// share one slot pool and one liveness rule: a queue entry is live exactly
// when its generation is its slot's `queued` generation.  `Cancel` frees
// the slot at once, and the stale queue entry is discarded when it
// surfaces; events that are never cancelled pay nothing.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/time.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"

namespace autonet {

class Simulator {
 public:
  using Callback = std::function<void()>;

  // Identifies a scheduled event or train for cancellation.  `seq` is the
  // creation sequence number (a tag: pool slots are recycled, sequence
  // numbers never are), `slot` locates the pool slot.  Default-constructed
  // ids are invalid.
  struct EventId {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool valid() const { return seq != 0; }
  };

  // --- the order of simultaneous entries --------------------------------
  //
  // Entries of one tick fire in order of (rank, position):
  //   rank 0  plain events scheduled for a later tick, by global sequence
  //   rank 1  link arrivals, by transmit tick, then channel
  //   rank 2  pump firings, by owner
  //   rank 3  events scheduled for the current tick, by global sequence
  // Only ranks 0 and 3 draw from the global sequence, and they draw it when
  // they are scheduled.  An arrival's or a pump's order is fixed by what it
  // is, so a component can name the position of a firing it skips (a link
  // applies a landed byte when its receiver looks; a pump commits a run of
  // future pops).  Each channel and each pump has at most one live entry,
  // so positions are unique among live entries.  An entry whose (when,
  // order) would not lie after the dispatch position is scheduled for the
  // current tick instead (rank 3), as a plain event there would be.
  using Order = std::uint64_t;
  static constexpr int kRankShift = 60;
  static constexpr Order kRankPlain = 0;
  static constexpr Order kRankArrival = Order{1} << kRankShift;
  static constexpr Order kRankPump = Order{2} << kRankShift;
  static constexpr Order kRankNow = Order{3} << kRankShift;
  // Channel delays up to 2^28 ns (a cable of some 50,000 km).
  static constexpr Tick kMaxChannelDelay = (Tick{1} << 28) - 1;
  // The order of an arrival over a channel of fixed `delay`: at one tick,
  // a longer delay means an earlier transmit tick.
  static constexpr Order ArrivalOrder(Tick delay, std::uint32_t channel) {
    return kRankArrival |
           static_cast<Order>(kMaxChannelDelay - delay) << 32 | channel;
  }
  static constexpr Order PumpOrder(std::uint32_t owner) {
    return kRankPump | owner;
  }
  // A stable id for a component that owns a pump or a link channel;
  // components built in the same order get the same ids.
  std::uint32_t NewOwner() { return next_owner_++; }

  // What a train handler wants to happen after the firing it just served:
  // end the train, or re-anchor it to an explicit time, at an arrival or
  // pump order, or (order 0) as a plain event scheduled now would be.
  // 16 bytes (kind shares a word with the 62-bit order) so handlers return
  // it in a register pair instead of through a hidden sret pointer — the
  // return crosses an indirect-call boundary once per train firing.
  struct TrainStep {
    enum class Kind : std::uint8_t { kDone, kAt };
    Tick when = 0;
    std::uint64_t order_kind = 0;  // order << 1 | kind

    Kind kind() const { return static_cast<Kind>(order_kind & 1); }
    Order order() const { return order_kind >> 1; }

    static TrainStep Done() { return TrainStep{}; }
    static TrainStep At(Tick when, Order order = 0) {
      return TrainStep{when,
                       order << 1 | static_cast<std::uint8_t>(Kind::kAt)};
    }
  };
  // A train's handler: a free function plus two context words.  Trains run
  // on the per-byte hot path (one link delivery firing per symbol), so
  // there is no std::function to construct, call through, or tear down.
  using TrainFn = TrainStep (*)(void* ctx, std::uint64_t arg);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Schedules `callback` at `when`.  A `when` in the past is clamped to now
  // and counted in the `sim.schedule_past_clamped` metric — debug and
  // release builds deliberately behave identically here.
  EventId ScheduleAt(Tick when, Callback callback);
  EventId ScheduleAfter(Tick delay, Callback callback) {
    return ScheduleAt(now_ + delay, std::move(callback));
  }

  // --- train events -----------------------------------------------------
  //
  // A train is a handler-steered sequence of firings that keeps exactly ONE
  // queue entry alive: each firing's handler names the next firing time
  // (TrainStep::At), and the entry re-sifts itself there instead of being
  // freed.  A packet's worth of byte deliveries costs one pool slot and one
  // live queue entry — versus one of each per byte with plain events.
  //
  // Determinism contract: a re-sift with order 0 takes a fresh sequence
  // number exactly where a plain event would have been scheduled (right
  // after the handler returns), so converting an event-per-firing chain to
  // a train is timing-invisible.  Link channels and pumps re-sift at their
  // own arrival or pump order instead (see Order).

  // Fires fn(ctx, arg) at `start`, then wherever each firing's TrainStep
  // says, until one returns Done().  `order` (0: as a plain event) is the
  // first firing's order.
  EventId ScheduleTrainRawAt(Tick start, Order order, TrainFn fn, void* ctx,
                             std::uint64_t arg);

  // The dispatch position: (now(), order) of the entry being dispatched or
  // last dispatched, or (t, infinity) once RunUntil(t) has run everything
  // up to t.  Passed(when, order) is true if an entry at (when, order)
  // would already have fired.  A component that applies work lazily,
  // outside the queue (Link's deferred byte deliveries, a pump's committed
  // run), uses it to apply exactly the work that is due when someone looks.
  bool Passed(Tick when, Order order) const {
    return when < now_ || (when == now_ && order < dispatch_order_);
  }

  // Work that is due at known (when, order) positions but held outside the
  // queue registers here.  A tie chooser must see every firing of a tick, so
  // installing one first asks each holder to put its work back on the queue.
  class OffQueueWork {
   public:
    virtual void Requeue() = 0;

   protected:
    ~OffQueueWork() = default;
  };
  void AddOffQueueWork(OffQueueWork* work) { off_queue_.push_back(work); }
  void RemoveOffQueueWork(OffQueueWork* work);

  // Returns true if the event (or train) existed and had not yet fired (for
  // trains: not yet ended).  O(1), touches only the named pool slot.
  bool Cancel(EventId id);

  // --- interleaving exploration hook ------------------------------------
  //
  // The (when, order) total order makes every run reproducible, but it also
  // means only ONE of the n! orderings of n same-tick events is ever
  // observed.  A tie-break chooser turns the dispatch loop into a guided
  // scheduler for exploring the others: before each dispatch, every live
  // entry at the earliest pending tick is collected into a ready batch (in
  // order) and chooser(now, n) picks which of the n fires next.  Events a
  // dispatch schedules at the same tick join the batch before the next
  // choice, and a choice of 0 every time reproduces the default (when,
  // order) order exactly — so a schedule is replayed by replaying the choice
  // sequence.  The chooser is only consulted when n >= 2; out-of-range
  // picks clamp to 0.  Passing nullptr restores default order (any batched
  // entries return to the queue unharmed).  May be installed or removed
  // from inside a callback.  Installing one first requeues all off-queue
  // work (see OffQueueWork).  Purely an exploration instrument: off, it
  // costs one predicted branch per dispatch.
  using TieChooser = std::function<std::uint32_t(Tick now, std::uint32_t n)>;
  void SetTieChooser(TieChooser chooser);

  // --- per-byte reference mode (for tests) --------------------------------
  //
  // Under it every receiver refuses every deferral grant, so every link
  // byte is an event of its own, as in the slot-exact model; a differential
  // test runs the same work in both modes and compares what was observed.
  // Switching it on first requeues all off-queue work, like a tie chooser.
  void SetPerByteReference(bool on);
  // Whether off-queue work may be created: not under a tie chooser, which
  // must see every firing of a tick, nor in per-byte reference mode.
  bool off_queue_allowed() const { return off_queue_allowed_; }

  // A fingerprint of what the data plane showed its observers (client
  // deliveries and status-register samples), mixed in by those observers;
  // two runs of the same work compare it.
  void MixDataDigest(std::uint64_t word) {
    data_digest_ = Fnv1a(data_digest_, &word, sizeof word);
  }
  std::uint64_t data_digest() const { return data_digest_; }

  // Runs all events with time <= t, then advances the clock to t.
  // Returns the number of events processed.
  std::uint64_t RunUntil(Tick t);

  // Runs until the queue is empty.  Returns the number of events processed.
  std::uint64_t Run();

  Tick now() const { return now_; }
  bool empty() const { return pending() == 0; }
  // Live schedulables: pending plain events plus active trains (a train
  // counts once, however many firings it has left, and while its handler
  // runs).  A slot is allocated exactly while one of these holds it.
  std::size_t pending() const { return slots_.size() - free_slots_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // Telemetry shared by every component in this simulation: a network-wide
  // metric registry and the reconfiguration flight recorder.  Hung off the
  // simulator because every component already holds a Simulator*, including
  // standalone single-switch test rigs that have no Network.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  // The flight recorder is disarmed by default; see src/obs/flight.h.
  obs::FlightRecorder& flight() { return flight_; }
  const obs::FlightRecorder& flight() const { return flight_; }

 private:
  // The global sequence of ranks 0 and 3 fills an order's 60-bit position
  // (~1.2e18 schedules).  A queue entry's tag holds its slot's generation
  // above the pool-slot index: 24 bits of slot bound the pool at ~16.7M
  // concurrently-live events, checked where it could first overflow.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << kRankShift) - 1;
  static constexpr std::uint32_t kMaxSlot =
      (std::uint32_t{1} << kSlotBits) - 1;

  // One queue entry.  Trivially copyable: sifts move plain words, never a
  // std::function, and top() is read without const_cast tricks.
  struct QEntry {
    Tick when;
    Order order;
    std::uint64_t tag;  // generation << 24 | slot

    std::uint64_t gen() const { return tag >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(tag) & kMaxSlot;
    }
  };
  // 4-ary min-heap over QEntry.  Used as the *overflow* tier of the
  // two-tier EventQueue below: only events beyond the timing wheel's window
  // (millisecond-scale timers) live here, so its operations are off the
  // per-byte hot path.  Arity 4 halves the depth versus a binary heap and
  // keeps each level's children close; dispatch order is arity-independent
  // because (when, order) is a total order among live entries.
  class EventHeap {
   public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const QEntry& top() const { return heap_[0]; }

    void push(QEntry e) {
      std::size_t i = heap_.size();
      heap_.push_back(e);  // placeholder; hole-percolate e into position
      while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!Before(e, heap_[parent])) {
          break;
        }
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = e;
    }

    // Bottom-up pop: percolate the root hole down the min-child path to a
    // leaf, then sift the detached last element up from there.  The last
    // element is almost always a recent far-future push, so the sift-up
    // terminates immediately — this trades the per-level "compare against
    // the sifted element" of the classic pop for one compare total.
    void pop() {
      QEntry last = heap_.back();
      heap_.pop_back();
      std::size_t n = heap_.size();
      if (n == 0) {
        return;
      }
      std::size_t i = 0;
      for (;;) {
        std::size_t first = kArity * i + 1;
        if (first >= n) {
          break;
        }
        std::size_t end = first + kArity < n ? first + kArity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (Before(heap_[c], heap_[best])) {
            best = c;
          }
        }
        heap_[i] = heap_[best];
        i = best;
      }
      while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!Before(last, heap_[parent])) {
          break;
        }
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = last;
    }

    // (when, order) lexicographic order as ONE branchless 128-bit compare —
    // the sift loops scan 4 children per level, and data-dependent branches
    // there are unpredictable.  `when` is never negative (schedules are
    // clamped to now), so unsigned order equals signed order.  Only a
    // stale entry can share a live one's (when, order).
    static bool Before(const QEntry& a, const QEntry& b) {
      using U128 = unsigned __int128;
      U128 ka = (U128{static_cast<std::uint64_t>(a.when)} << 64) | a.order;
      U128 kb = (U128{static_cast<std::uint64_t>(b.when)} << 64) | b.order;
      return ka < kb;
    }

   private:
    static constexpr std::size_t kArity = 4;

    std::vector<QEntry> heap_;
  };

  // Two-tier event queue: a 256-bucket timing wheel over 128 ns quanta
  // (a 32.8 µs window) in front of the 4-ary overflow heap.  The traffic
  // hot path lives entirely on the 80 ns slot grid within one propagation
  // delay of now, so its pushes and pops are O(1) appends/advances on
  // small per-bucket vectors; only far-future work (millisecond-scale
  // Autopilot timers) takes the heap path, and it migrates into the wheel
  // as the clock approaches.
  //
  // Exactness: dispatch order is the same total (when, order) order the
  // heap alone gave.  Buckets are visited in time order; within a bucket the
  // vector is kept sorted on insert.  The tail append is in order for most
  // pushes; an arrival or pump entering behind a later-ranked entry of its
  // quantum, and a heap migration landing behind fresh pushes, pay a
  // bounded backward insertion.  The scan can start at now's quantum
  // because every queue entry, live or stale, satisfies when >= now: the
  // dispatch loop never advances the clock past an undrained entry (stale
  // heads are popped as they surface, even past a RunUntil horizon).  That
  // same invariant bounds all wheel entries to [quantum(now), quantum(now)
  // + 256), so the ring indexing never aliases two quanta.
  class EventQueue {
   public:
    bool empty() const { return wheel_size_ == 0 && far_.empty(); }
    std::size_t size() const { return wheel_size_ + far_.size(); }

    // Returns the (when, order)-minimal entry.  Far-heap entries migrate into
    // the wheel only once their quantum enters the scan window — never
    // beyond it, which is what keeps every wheel entry inside
    // [quantum(now), quantum(now) + 256) and the ring indexing alias-free.
    // With the wheel empty the heap top is returned in place (the clock may
    // stop short of it, and parking it in a bucket outside the window would
    // let a later scan surface it at an aliased position, ahead of nearer
    // entries still in the heap).  Precondition: queue not empty; `now` is
    // the caller's clock (every entry's when is >= now).
    const QEntry& top(Tick now) {
      if (wheel_size_ == 0) {
        top_in_far_ = true;
        return far_.top();
      }
      top_in_far_ = false;
      std::uint64_t q = Quantum(now);
      for (;;) {
        while (!far_.empty() && Quantum(far_.top().when) <= q) {
          PlaceInBucket(far_.top());
          ++wheel_size_;
          far_.pop();
        }
        Bucket& b = ring_[q & kMask];
        if (b.head < b.v.size()) {
          last_q_ = q;
          return b.v[b.head];
        }
        ++q;
      }
    }

    // Pops the entry the immediately preceding top() returned.
    void pop() {
      if (top_in_far_) {
        far_.pop();
        return;
      }
      Bucket& b = ring_[last_q_ & kMask];
      if (++b.head == b.v.size()) {
        b.v.clear();  // keeps capacity; ring buckets recycle their storage
        b.head = 0;
      }
      --wheel_size_;
    }

    void push(const QEntry& e, Tick now) {
      if (Quantum(e.when) - Quantum(now) >= kBuckets) {
        far_.push(e);
      } else {
        PlaceInBucket(e);
        ++wheel_size_;
      }
    }

   private:
    static constexpr int kQuantumBits = 7;        // 128 ns buckets
    static constexpr std::uint64_t kBuckets = 256;  // 32.8 µs window
    static constexpr std::uint64_t kMask = kBuckets - 1;

    struct Bucket {
      std::uint32_t head = 0;  // entries before head are already popped
      std::vector<QEntry> v;
    };

    static std::uint64_t Quantum(Tick when) {
      return static_cast<std::uint64_t>(when) >> kQuantumBits;
    }

    // Append keeping the bucket sorted by (when, order); see the class
    // comment for why the tail check nearly always passes.  A backward
    // insertion never moves below `head`: entries there already fired, and
    // an entry sorting before them would also have fired had it been
    // present, so the head position is exactly where the heap would have
    // surfaced it next.
    void PlaceInBucket(const QEntry& e) {
      Bucket& b = ring_[Quantum(e.when) & kMask];
      if (b.v.size() == b.head || !EventHeap::Before(e, b.v.back())) {
        b.v.push_back(e);
        return;
      }
      std::size_t i = b.v.size();
      while (i > b.head && EventHeap::Before(e, b.v[i - 1])) {
        --i;
      }
      b.v.insert(b.v.begin() + i, e);
    }

    std::uint64_t last_q_ = 0;   // quantum of the last top()'s bucket
    bool top_in_far_ = false;    // last top() came from the overflow heap
    std::size_t wheel_size_ = 0;
    std::array<Bucket, kBuckets> ring_;
    EventHeap far_;
  };

  // A scheduled plain event (fn == nullptr: `callback`) or train (fn with
  // its ctx/arg context).  Both obey one liveness rule: a queue entry is
  // live exactly when its generation equals its slot's `queued`.  A slot
  // is allocated exactly while its entry is queued, batched by the tie
  // chooser or firing a train's handler (a plain event's slot is freed
  // before its callback runs).  Cancel frees the slot at once, so an entry
  // left in the queue goes stale by itself.  Generations count a slot's
  // enqueues and are never reused while an old entry can still surface.
  struct Slot {
    std::uint64_t id = 0;      // creation seq (EventId tag); 0 = free
    std::uint64_t queued = 0;  // generation of the live or firing entry
    std::uint64_t gen = 0;     // the slot's last generation
    TrainFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
    Callback callback;
  };

  // Allocates the next sequence number, halting (deterministically, with a
  // diagnostic) if the order's 60-bit position would overflow.
  std::uint64_t NextSeq() {
    if (next_seq_ > kMaxSeq) {
      SeqOverflow();
    }
    return next_seq_++;
  }
  [[noreturn]] static void SeqOverflow();
  [[noreturn]] static void SlotOverflow();

  // Returns a free slot with `id` set.
  std::uint32_t AllocSlot(std::uint64_t id);
  void FreeSlot(std::uint32_t slot);
  // Pushes slot `index`'s one live queue entry at (when, order).  A `when`
  // in the past is clamped to now and counted.  Order 0 is a plain event's:
  // rank 0 for a later tick, rank 3 for this one; so is any order that
  // would not lie after the dispatch position.
  void Enqueue(Slot& s, std::uint32_t index, Tick when, Order order) {
    if (when < now_) {
      when = now_;
      NotePastClamp();
    }
    if (when == now_ && order <= dispatch_order_) {
      order = kRankNow | NextSeq();
    } else if (order == 0) {
      order = NextSeq();  // rank 0
    }
    s.gen = (s.gen + 1) & kMaxGen;
    s.queued = s.gen;
    queue_.push(QEntry{when, order, s.gen << kSlotBits | index}, now_);
  }
  static constexpr std::uint64_t kMaxGen =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;
  bool EntryLive(const QEntry& entry) const {
    return slots_[entry.slot()].queued == entry.gen();
  }
  // `entry` is the caller's copy of queue_.top() — passed in (two registers)
  // so the dispatch loop reads the heap root exactly once per event.
  void DispatchTop(QEntry entry);
  // Runs an entry the caller already popped (the chooser path pulls entries
  // into ready_batch_ before dispatching them).
  void DispatchEntry(QEntry entry);
  // One dispatch under the tie chooser: fills/merges the ready batch at the
  // earliest pending tick <= horizon, lets the chooser pick, dispatches.
  // Returns false when nothing within the horizon remains.
  bool StepChosen(Tick horizon);
  // Default-order equivalent used by Run/RunUntil (the pre-chooser loop
  // body): peels stale heads, dispatches the earliest live entry.
  bool StepDefault(Tick horizon);
  void NotePastClamp();
  // The one way off_queue_allowed_ changes: revoking it first requeues
  // every OffQueueWork.
  void SetOffQueueAllowed(bool allowed);

  Tick now_ = 0;
  Order dispatch_order_ = 0;  // with now_, the dispatch position
  std::uint64_t next_seq_ = 1;
  std::uint32_t next_owner_ = 0;
  std::uint64_t events_processed_ = 0;
  EventQueue queue_;
  TieChooser chooser_;
  std::vector<OffQueueWork*> off_queue_;
  bool per_byte_reference_ = false;
  bool off_queue_allowed_ = true;  // neither of the two above
  std::uint64_t data_digest_ = kFnvOffset;
  // Live same-tick entries pulled out of the queue for the chooser, in
  // order; empty whenever chooser_ is unset.
  std::vector<QEntry> ready_batch_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
#ifdef AUTONET_QUEUE_ORDER_CHECK
  Tick check_last_when_ = 0;  // dispatch-order audit (debug builds)
  Order check_last_order_ = 0;
#endif
  obs::Counter* past_clamped_ = nullptr;  // created on first clamp
  obs::MetricRegistry metrics_;
  obs::FlightRecorder flight_;
};

}  // namespace autonet

#endif  // SRC_SIM_SIMULATOR_H_
