// Full-duplex point-to-point link model (sections 3.1, 5.3, 6.1).
//
// A Link joins endpoints A and B with a stream of 80 ns symbol slots in
// each direction; data symbols are delivered to the remote endpoint after
// the propagation delay, and flow-control directive *changes* are delivered
// quantized to the next flow-control slot (every 256th slot) plus the
// propagation delay.  Idle channels generate no events: "how many directive
// slots were missed" style questions are answered arithmetically from
// state-change timestamps.
//
// Symbols in flight are kept in four channels, one per (transmitting side,
// receiving side): A->B and B->A cross the cable (delay d), A->A and B->B
// are reflections (delay 2d).  Each channel's delay is fixed, so its
// arrivals are in transmit order even when a mode change mid-stream moves a
// side's symbols from one channel to another.  Delivery uses one simulator
// *train* per channel rather than one event per symbol: each transmitted
// symbol becomes a POD flit in the channel's in-flight ring, and a single
// queue entry re-sifts itself from arrival to arrival.  A train with no
// flit left to deliver ends, and the next flit starts a new one at its own
// reserved position.  Each flit's tie-break sequence is reserved at
// transmit time, so the global firing order is identical to one event per
// symbol.
//
// Most data bytes land where nobody is looking: a streaming forwarder's
// FIFO, or a host port that only counts them.  A receiver may grant its
// cross channel deferral (GrantDeferral) while applying a byte could not
// schedule anything; deferred bytes stay in the ring in order, the train
// skips them, and they are applied when the receiver next looks (Settle),
// when the next undeferred flit of the channel fires, or when the grant
// ends (RevokeDeferral, which hands the rest back to the train at their
// reserved positions).  A look applies exactly the deferred bytes whose
// (arrive, seq) the simulator's dispatch position has passed, so it sees
// what one event per symbol would have shown it; it hands them over as
// runs, one OnDataBytes call per run of consecutive offsets.
//
// Fault modes reproduce the physical behaviours the paper describes:
//   kCut         no symbols arrive in either direction (unplugged cable)
//   kReflectA/B  the coax hybrid reflects the named side's own transmissions
//                back to it (unterminated cable or unpowered remote port,
//                section 5.3); the other side hears silence
// plus a per-byte corruption probability modelling a marginal link.
#ifndef SRC_LINK_LINK_H_
#define SRC_LINK_LINK_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>

#include "src/common/packet.h"
#include "src/common/ring.h"
#include "src/common/time.h"
#include "src/link/flow.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace autonet {

// Integrity flags accompanying a packet's end command.  `truncated` means
// the packet lost its tail (the upstream switch was reset mid-forward, or
// the cable was cut); `corrupted` means some earlier byte was damaged, so
// the packet's CRC will not verify.
struct EndFlags {
  bool truncated = false;
  bool corrupted = false;
};

// Receive-path callbacks.  Implemented by switch link units and host
// controller ports.  Callbacks run at symbol *arrival* time.
class LinkEndpoint {
 public:
  virtual ~LinkEndpoint() = default;

  virtual void OnPacketBegin(const PacketRef& packet) = 0;
  // `n` data bytes of the current packet, at offsets first_offset ..
  // first_offset + n - 1, all landed by now; `corrupt_count` of them carry
  // a transmission error (will surface as a CRC failure / BadCode).  A
  // train firing delivers one byte at its arrival; a run of n > 1 comes
  // only from a receiver's own deferral grant (Link::GrantDeferral), so an
  // endpoint that never grants always sees n == 1.
  virtual void OnDataBytes(std::uint32_t first_offset, std::uint32_t n,
                           std::uint32_t corrupt_count) = 0;
  virtual void OnPacketEnd(EndFlags flags) = 0;
  virtual void OnFlowDirective(FlowDirective directive) = 0;
  // The link was cut or restored under us (also fired on mode changes that
  // silence our receive channel).
  virtual void OnCarrierChange(bool carrier_up) = 0;
  // A code violation at the receiver: physical-layer glitches such as the
  // terminated->unterminated transition of a coax link (section 7: the
  // transition "almost always causes enough BadCode status ... to classify
  // the link broken").  Default: ignored.
  virtual void OnCodeViolation() {}
};

enum class LinkMode : std::uint8_t {
  kNormal,
  kCut,
  kReflectA,  // side A hears its own transmissions; side B hears silence
  kReflectB,  // side B hears its own transmissions; side A hears silence
};

class Link final : public Simulator::OffQueueWork {
 public:
  enum class Side : int { kA = 0, kB = 1 };
  static constexpr Side Other(Side s) {
    return s == Side::kA ? Side::kB : Side::kA;
  }

  Link(Simulator* sim, double length_km, std::uint64_t corruption_seed = 1);
  ~Link();

  void Attach(Side side, LinkEndpoint* endpoint);
  void Detach(Side side);

  // --- transmit path (called by the owning endpoint of `from`) ---
  void TransmitBegin(Side from, const PacketRef& packet);
  // Inline (defined below the class): runs once per payload byte.
  void TransmitByte(Side from, std::uint32_t offset);
  void TransmitEnd(Side from, EndFlags flags);

  // Latches the directive this side sends in flow-control slots.  kNone
  // means "send only sync in flow slots" (alternate host port behaviour).
  // The remote side observes the change at the next flow slot plus the
  // propagation delay.  A change made while a previous change is still
  // waiting for its flow slot supersedes it: only the latest latched value
  // is ever delivered.  Inline so the no-change case (re-asserted once per
  // forwarded byte by the FIFO flow logic) costs one compare.
  void SetFlowDirective(Side from, FlowDirective directive) {
    if (tx_[static_cast<int>(from)].directive == directive) {
      return;
    }
    SetFlowDirectiveChanged(from, directive);
  }
  FlowDirective flow_directive(Side from) const {
    return tx_[static_cast<int>(from)].directive;
  }

  // --- fault injection ---
  void SetMode(LinkMode mode);
  LinkMode mode() const { return mode_; }
  // Probability that any individual transmitted byte is damaged.
  void SetCorruptionRate(double per_byte_probability) {
    corruption_rate_ = per_byte_probability;
    faulted_ = faulted_ || per_byte_probability > 0.0;
  }
  // Whether a cut, a reflection or corruption was ever injected here.
  bool ever_faulted() const { return faulted_; }

  // --- state queries ---
  // Whether the named side currently receives a carrier.
  bool CarrierAt(Side rx_side) const;
  // Number of flow-control slots since `since` in which the named receiving
  // side saw sync instead of a directive while carrier was present.  Used by
  // the status sampler to derive BadSyntax counts for alternate host ports.
  std::int64_t MissedDirectiveSlots(Side rx_side, Tick since) const;

  double length_km() const { return length_km_; }
  Tick propagation_delay() const { return propagation_delay_; }

  Simulator* sim() { return sim_; }

  // --- deferred delivery (see the header comment), called by the endpoint
  // receiving on `rx` about its inbound cross channel ---

  // Grants deferral of data bytes arriving after `horizon`, and of
  // `headroom` more symbols arriving at or before it, counting the ones
  // already in flight.  A receiver that looks again at `horizon` re-grants
  // or revokes then; one that can absorb any number of bytes passes
  // kNoHorizon.  The headroom is what the receiver can absorb without
  // acting; if the symbols in flight exceed it, the grant is revoked
  // instead.  Ignored while off-queue work is not allowed (a tie chooser or
  // the per-byte reference mode, see Simulator).
  static constexpr Tick kNoHorizon = -1;
  void GrantDeferral(Side rx, Tick horizon, std::size_t headroom);
  // Ends the grant: deferred bytes the dispatch position has passed are
  // applied now, and the rest go back on the train at their reserved
  // positions.
  void RevokeDeferral(Side rx);
  // Applies the deferred bytes the dispatch position has passed.  Every
  // read or write of a granting receiver starts here.
  void Settle(Side rx) {
    Channel& ch = channels_[ChannelIndex(Other(rx), rx)];
    if (ch.deferred != 0) {
      ApplyDeferred(ch, /*due_only=*/true);
    }
  }

  // Simulator::OffQueueWork: revokes both sides' grants.
  void Requeue() override;

 private:
  struct TxState {
    FlowDirective directive = FlowDirective::kNone;
    Tick directive_since = 0;
    bool in_packet = false;
    // The undelivered directive change scheduled for the next flow slot, if
    // any.  Cancelled when a newer change supersedes it.
    Simulator::EventId pending_directive;
  };

  // One in-flight symbol of a channel: receiver and arrival time are
  // captured at transmit time, as is `seq`, the reserved tie-break position
  // among simultaneous events.  Deliberately trivially copyable — the ring
  // below moves these by plain stores; the packet a kBegin introduces rides
  // in the channel's `begin_packets` ring instead.
  struct Flit {
    // A deferred byte is held for the receiver's next look, not the train.
    enum class Kind : std::uint8_t { kBegin, kByte, kEnd, kDeferredByte };
    Tick arrive;
    std::uint64_t seq;
    LinkEndpoint* ep;
    std::uint32_t offset;
    Kind kind;
    bool corrupt;
    EndFlags flags;

    bool deferred() const { return kind == Kind::kDeferredByte; }
  };
  static_assert(std::is_trivially_copyable_v<Flit>);

  // Unidirectional channel state, keyed by (transmitting, receiving) side;
  // see ChannelIndex.
  // The fields a deferred byte touches come first, in one cache line.
  struct alignas(64) Channel {
    Ring<Flit> inflight;
    // Deferred flits in `inflight`, and the receiver's grant (see
    // GrantDeferral); the default grants nothing.
    std::size_t deferred = 0;
    Tick horizon = std::numeric_limits<Tick>::max();
    std::size_t headroom = 0;
    // Packets of the kBegin flits in `inflight`, in order (cut-through
    // keeps this at one or two entries).
    Ring<PacketRef> begin_packets;
    // The train is queued at the first flit that is not deferred, if any;
    // it ends, and this is reset, when none is left.
    Simulator::EventId train;
    bool firing = false;  // DeliverStep is on the stack
  };
  // A channel holding this many flits applies its due deferred bytes before
  // growing, whatever flit is pushed: big enough to batch, small enough to
  // stay in cache.
  static constexpr std::size_t kSettleBatch = 64;
  static constexpr int ChannelIndex(Side from, Side to) {
    return 2 * static_cast<int>(from) + static_cast<int>(to);
  }

  // Where do symbols transmitted from `from` end up?  Returns false if they
  // are lost.  Inline: on the per-byte transmit path, and kNormal folds to
  // two stores.
  bool DeliveryTarget(Side from, Side* rx_side, Tick* delay) const {
    switch (mode_) {
      case LinkMode::kNormal:
        *rx_side = Other(from);
        *delay = propagation_delay_;
        return true;
      case LinkMode::kCut:
        return false;
      case LinkMode::kReflectA:
        if (from != Side::kA) {
          return false;
        }
        *rx_side = Side::kA;
        *delay = 2 * propagation_delay_;
        return true;
      case LinkMode::kReflectB:
        if (from != Side::kB) {
          return false;
        }
        *rx_side = Side::kB;
        *delay = 2 * propagation_delay_;
        return true;
    }
    return false;
  }
  LinkEndpoint* EndpointAt(Side side) const {
    return endpoints_[static_cast<int>(side)];
  }
  // Inline (defined below the class); the train start is out of line.
  void PushFlit(int index, const Flit& flit);
  // Starts channel `index`'s train at `flit`, its first undeferred flit, at
  // the flit's reserved (arrive, seq) position, unless the channel already
  // has one: queued at an earlier flit, or firing, in which case its
  // DeliverStep will chain to the first undeferred flit itself (the
  // delivery callback transmitted back into the same channel, e.g. in
  // reflect mode).
  void AnchorTrain(int index, const Flit& flit);
  Simulator::TrainStep DeliverStep(int index);
  // Hands a train firing's flit to its receiver.
  void Apply(Channel& ch, const Flit& f);
  // Hands the deferred bytes at the front of the ring to their receiver,
  // one call per run of consecutive offsets: those the dispatch position
  // has passed (`due_only`), or all of them (a firing behind them).
  void ApplyDeferred(Channel& ch, bool due_only);
  // Before a push fills the ring, applies what has landed instead of
  // growing it.
  void SettleIfFull(Channel& ch) {
    if (ch.inflight.full() && ch.inflight.size() >= kSettleBatch &&
        ch.deferred != 0) {
      ApplyDeferred(ch, /*due_only=*/true);
    }
  }
  void SetFlowDirectiveChanged(Side from, FlowDirective directive);
  void ScheduleDirective(Side from, FlowDirective directive);
  void NotifyCarrier();
  void RedeliverDirectives();

  Simulator* sim_;
  double length_km_;
  Tick propagation_delay_;
  LinkMode mode_ = LinkMode::kNormal;
  double corruption_rate_ = 0.0;
  bool faulted_ = false;
  Rng corruption_rng_;
  std::array<LinkEndpoint*, 2> endpoints_{};
  std::array<TxState, 2> tx_{};
  std::array<Channel, 4> channels_{};
  std::array<bool, 2> last_carrier_{false, false};
};

// Appends a transmitted symbol to channel `index`'s in-flight ring for the
// train to deliver, anchoring the train here if no other undeferred flit is
// pending.  The channel's fixed delay keeps the ring sorted by arrival, so
// every flit fires at its captured (arrive, seq) position.  Inline so the
// per-byte transmit chain (endpoint -> TransmitByte -> PushFlit) compiles as
// one unit.
inline void Link::PushFlit(int index, const Flit& flit) {
  Channel& ch = channels_[index];
  if (flit.arrive <= ch.horizon && ch.headroom != 0) {
    --ch.headroom;  // it lands inside the grant's window
  }
  SettleIfFull(ch);
  bool anchored = ch.inflight.size() != ch.deferred;
  ch.inflight.push_back(flit);
  if (!anchored) {
    AnchorTrain(index, flit);
  }
}

// Inline: a streaming forwarder re-grants at every pump firing.
inline void Link::GrantDeferral(Side rx, Tick horizon, std::size_t headroom) {
  if (!sim_->off_queue_allowed()) {
    return;
  }
  Channel& ch = channels_[ChannelIndex(Other(rx), rx)];
  // Symbols in flight landing at or before horizon, landed ones included:
  // count the few landing after it, from the back of the arrival-ordered
  // ring, since the front may hold a long run nobody has looked at yet.
  std::size_t size = ch.inflight.size();
  std::size_t later = 0;
  while (later < size && ch.inflight[size - 1 - later].arrive > horizon) {
    ++later;
  }
  std::size_t due = size - later;
  if (due > headroom) {
    RevokeDeferral(rx);
    return;
  }
  ch.horizon = horizon;
  ch.headroom = headroom - due;
}

inline void Link::TransmitByte(Side from, std::uint32_t offset) {
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  LinkEndpoint* ep = EndpointAt(rx);
  if (ep == nullptr) {
    return;
  }
  bool corrupt =
      corruption_rate_ > 0.0 && corruption_rng_.Bernoulli(corruption_rate_);
  Flit flit{};
  flit.arrive = sim_->now() + delay;
  flit.seq = sim_->ReserveSeq();
  flit.ep = ep;
  flit.offset = offset;
  flit.kind = Flit::Kind::kByte;
  flit.corrupt = corrupt;
  int index = ChannelIndex(from, rx);
  Channel& ch = channels_[index];
  if (flit.arrive > ch.horizon || ch.headroom != 0) {
    if (flit.arrive <= ch.horizon) {
      --ch.headroom;
    }
    SettleIfFull(ch);  // a host port looks only at a packet's end
    flit.kind = Flit::Kind::kDeferredByte;
    ch.inflight.push_back(flit);
    ++ch.deferred;
    return;
  }
  PushFlit(index, flit);
}

}  // namespace autonet

#endif  // SRC_LINK_LINK_H_
