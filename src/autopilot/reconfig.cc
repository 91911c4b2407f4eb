#include "src/autopilot/reconfig.h"

#include <algorithm>

#include "src/autopilot/autopilot.h"
#include "src/routing/spanning_tree.h"

namespace autonet {

ReconfigEngine::ReconfigEngine(Autopilot* owner)
    : owner_(owner),
      sim_(owner->node()->sim()),
      self_uid_(owner->uid()),
      config_(&owner->config()),
      emit_(&owner->node()->emitter()),
      pos_root_(self_uid_),
      retransmit_task_(sim_, [this] { Retransmit(); }) {
  obs::MetricRegistry& reg = sim_->metrics();
  const std::string prefix =
      "switch." + emit_->log().node_name() + ".reconfig.";
  m_epochs_joined_ = emit_->counter(obs::FlightEventKind::kEpochJoin);
  m_triggers_ = emit_->counter(obs::FlightEventKind::kTrigger);
  m_completions_ = reg.GetCounter(prefix + "completions");
  m_roots_terminated_ = emit_->counter(obs::FlightEventKind::kTermination);
  m_local_updates_applied_ = reg.GetCounter(prefix + "local_updates_applied");
  m_deltas_originated_ = reg.GetCounter(prefix + "deltas_originated");
  m_deltas_relayed_ = reg.GetCounter(prefix + "deltas_relayed");
  m_local_fallbacks_ = reg.GetCounter(prefix + "local_fallbacks");
  m_messages_sent_ = reg.GetCounter(prefix + "messages_sent");
  m_retransmissions_ = reg.GetCounter(prefix + "retransmissions");
  m_epoch_ms_ = reg.GetHistogram("autopilot.reconfig.epoch_ms");
}

ReconfigEngine::Stats ReconfigEngine::stats() const {
  Stats s;
  s.epochs_joined = m_epochs_joined_->value();
  s.triggers = m_triggers_->value();
  s.completions = m_completions_->value();
  s.roots_terminated = m_roots_terminated_->value();
  s.local_updates_applied = m_local_updates_applied_->value();
  s.deltas_originated = m_deltas_originated_->value();
  s.deltas_relayed = m_deltas_relayed_->value();
  s.local_fallbacks = m_local_fallbacks_->value();
  s.messages_sent = m_messages_sent_->value();
  s.retransmissions = m_retransmissions_->value();
  s.last_join_time = last_join_time_;
  s.last_config_time = last_config_time_;
  s.last_termination_time = last_termination_time_;
  return s;
}

void ReconfigEngine::Shutdown() {
  outgoing_.clear();
  retransmit_task_.Stop();
  in_progress_ = false;
}

void ReconfigEngine::Trigger(const char* reason) {
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch_ + 1,
               .kind = obs::FlightEventKind::kTrigger,
               .detail = reason});
  JoinEpoch(epoch_ + 1, reason);
}

void ReconfigEngine::JoinEpoch(std::uint64_t epoch, const char* reason,
                               PortNum inport, Uid origin) {
  epoch_ = epoch;
  in_progress_ = true;
  config_applied_ = false;
  suspect_epochs_.fill(0);
  suspect_next_ = 0;
  implausibly_stale_ = 0;
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch,
               .origin = origin,
               .port = static_cast<std::int16_t>(inport),
               .kind = obs::FlightEventKind::kEpochJoin,
               .detail = reason});
  last_join_time_ = sim_->now();

  // Freeze the participant set for this epoch (section 6.6.2).
  participants_ = owner_->GoodPorts();
  for (PortState& ps : ports_) {
    ps = PortState{};
  }
  for (PortNum p : participants_) {
    ports_[p].participant = true;
    ports_[p].neighbor_uid = owner_->neighbor_uid(p);
    ports_[p].neighbor_port = owner_->neighbor_port(p);
  }

  // Step 1: one-hop-only forwarding (destroys packets in the switch).
  owner_->LoadOneHopTable();

  // Assume root; tell the neighbors.
  pos_root_ = self_uid_;
  pos_level_ = 0;
  parent_uid_ = Uid();
  parent_port_ = -1;
  ++pos_seq_;
  outgoing_.clear();
  last_report_fingerprint_ = 0;
  applied_topo_.reset();
  applied_version_ = 0;
  for (PortNum p : participants_) {
    SendPositionTo(p);
  }
  // An isolated switch is immediately stable (and its own root).
  CheckStability();
}

void ReconfigEngine::SendPositionTo(PortNum port) {
  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kPosition;
  msg.epoch = epoch_;
  msg.sender_uid = self_uid_;
  msg.root_uid = pos_root_;
  msg.level = static_cast<std::uint16_t>(pos_level_);
  msg.pos_seq = pos_seq_;
  SendReliable(port, std::move(msg));
}

void ReconfigEngine::SendAckTo(PortNum port, std::uint32_t their_seq) {
  ReconfigMsg ack;
  ack.kind = ReconfigMsg::Kind::kPosAck;
  ack.epoch = epoch_;
  ack.sender_uid = self_uid_;
  ack.ack_seq = their_seq;
  ack.is_parent = parent_port_ == port;
  m_messages_sent_->Increment();
  owner_->SendReconfig(port, ack);
}

void ReconfigEngine::SendPayloadAck(PortNum port, ReconfigMsg::Kind kind,
                                    std::uint32_t payload_seq) {
  ReconfigMsg ack;
  ack.kind = kind;
  ack.epoch = epoch_;
  ack.sender_uid = self_uid_;
  ack.payload_seq = payload_seq;
  m_messages_sent_->Increment();
  owner_->SendReconfig(port, ack);
}

void ReconfigEngine::SendReliable(PortNum port, ReconfigMsg msg) {
  // At most one outstanding message of each kind per port.
  outgoing_.erase(std::remove_if(outgoing_.begin(), outgoing_.end(),
                                 [&](const Outgoing& o) {
                                   return o.port == port &&
                                          o.msg.kind == msg.kind;
                                 }),
                  outgoing_.end());
  m_messages_sent_->Increment();
  owner_->SendReconfig(port, msg);
  outgoing_.push_back(Outgoing{port, std::move(msg)});
  if (!retransmit_task_.running()) {
    retransmit_task_.Start(config_->retransmit_period);
  }
}

void ReconfigEngine::RemoveOutgoing(PortNum port, ReconfigMsg::Kind kind,
                                    std::uint32_t seq) {
  outgoing_.erase(
      std::remove_if(outgoing_.begin(), outgoing_.end(),
                     [&](const Outgoing& o) {
                       if (o.port != port || o.msg.kind != kind) {
                         return false;
                       }
                       std::uint32_t sent_seq =
                           kind == ReconfigMsg::Kind::kPosition
                               ? o.msg.pos_seq
                               : o.msg.payload_seq;
                       return sent_seq == seq;
                     }),
      outgoing_.end());
  if (outgoing_.empty()) {
    retransmit_task_.Stop();
  }
}

void ReconfigEngine::Retransmit() {
  if (outgoing_.empty()) {
    retransmit_task_.Stop();
    return;
  }
  for (const Outgoing& o : outgoing_) {
    m_retransmissions_->Increment();
    m_messages_sent_->Increment();
    owner_->SendReconfig(o.port, o.msg);
  }
}

void ReconfigEngine::ReevaluatePosition() {
  // Best position under the (root, level, parent uid, parent port) order.
  Uid best_root = self_uid_;
  int best_level = 0;
  Uid best_parent;
  PortNum best_port = -1;
  for (PortNum p : participants_) {
    const PortState& ps = ports_[p];
    if (!ps.have_their_pos) {
      continue;
    }
    Uid cand_root = ps.their_root;
    int cand_level = ps.their_level + 1;
    Uid cand_parent = ps.their_uid;
    bool better = false;
    if (cand_root != best_root) {
      better = cand_root < best_root;
    } else if (cand_level != best_level) {
      better = cand_level < best_level;
    } else if (cand_parent != best_parent) {
      better = cand_parent < best_parent;
    } else {
      better = p < best_port;
    }
    if (better) {
      best_root = cand_root;
      best_level = cand_level;
      best_parent = cand_parent;
      best_port = p;
    }
  }
  if (best_root == pos_root_ && best_level == pos_level_ &&
      best_parent == parent_uid_ && best_port == parent_port_) {
    return;  // unchanged
  }
  pos_root_ = best_root;
  pos_level_ = best_level;
  parent_uid_ = best_parent;
  parent_port_ = best_port;
  ++pos_seq_;
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch_,
               .origin = pos_root_,
               .a = static_cast<std::uint64_t>(pos_level_),
               .port = static_cast<std::int16_t>(parent_port_),
               .kind = obs::FlightEventKind::kPositionChange});
  // Everyone must re-ack the new position, and old child claims are void.
  for (PortNum p : participants_) {
    PortState& ps = ports_[p];
    ps.acked_my_pos = false;
    ps.claims_me = false;
    ps.have_report = false;
    ps.report.clear();
    SendPositionTo(p);
    // Re-ack their position with the updated is_parent bit so an ex-parent
    // learns it lost this child.
    if (ps.have_their_pos) {
      SendAckTo(p, ps.their_seq);
    }
  }
  last_report_fingerprint_ = 0;
}

void ReconfigEngine::OnMessage(PortNum inport, const ReconfigMsg& msg) {
  if (msg.epoch < epoch_) {
    if (epoch_ - msg.epoch > kMaxEpochJump) {
      // The sender is implausibly far behind — which convicts *our* epoch
      // register: the stale distance can only exceed kMaxEpochJump when
      // epoch_ itself does, and no healthy network reaches 2^32 epochs
      // (see kMaxEpochJump).  A runaway register would otherwise freeze
      // this switch out forever: every neighbor message looks ancient
      // here, every message we send looks implausibly far ahead there and
      // is dropped.  After a few independent sightings — enough to rule
      // out a single damaged incoming field — rejoin just above the
      // neighbors' epoch (Dolev-style self-stabilization: the register is
      // repaired from the ambient protocol traffic).
      if (++implausibly_stale_ >= kStaleResyncThreshold) {
        emit_->Emit({.time = sim_->now(),
                     .epoch = epoch_,
                     .origin = msg.sender_uid,
                     .a = msg.epoch,
                     .port = static_cast<std::int16_t>(inport),
                     .kind = obs::FlightEventKind::kEpochResync});
        JoinEpoch(msg.epoch + 1, "epoch register resync", inport,
                  msg.sender_uid);
      }
      return;
    }
    // Ordinarily stale: ignore (section 6.6.2).  One repair: a position
    // from a participant arriving while this switch is fully quiescent
    // means the sender is stuck in an older epoch yet believes the link is
    // usable — a diverged laggard (e.g. a corrupted-then-resynced register
    // landed it below us).  Re-sending our position educates it into the
    // current epoch; live waves never take this path because the protocol
    // here is still in progress while peers are behind.
    if (!in_progress_ && outgoing_.empty() &&
        msg.kind == ReconfigMsg::Kind::kPosition &&
        ports_[inport].participant) {
      SendPositionTo(inport);
    }
    return;
  }
  implausibly_stale_ = 0;
  if (msg.epoch > epoch_) {
    std::uint64_t jump = msg.epoch - epoch_;
    if (jump > kMaxEpochJump) {
      // Legitimate epochs advance by small increments from a network that
      // booted at zero; a jump this large can only be corruption that beat
      // the CRC.  Joining it would poison the whole network with a counter
      // parked near its ceiling (and the next wrap would break the
      // stale-epoch rule), so drop the message instead — retransmission
      // repairs the conversation at the real epoch.
      emit_->Emit({.time = sim_->now(),
                   .epoch = msg.epoch,
                   .origin = msg.sender_uid,
                   .b = epoch_,
                   .port = static_cast<std::int16_t>(inport),
                   .kind = obs::FlightEventKind::kEpochRejected});
      return;
    }
    if (jump > kEpochConfirmJump) {
      bool confirmed = false;
      for (std::uint64_t& slot : suspect_epochs_) {
        if (slot != 0 && slot == msg.epoch) {
          slot = 0;
          confirmed = true;
        }
      }
      if (!confirmed) {
        // Beyond anything a live neighbor's protocol produces: hold it
        // until a second sighting of the same value (see
        // kEpochConfirmJump).  A genuine sender's reliable retransmission
        // confirms it; a one-off damaged field never matches and the epoch
        // space stays unburnt.
        suspect_epochs_[suspect_next_] = msg.epoch;
        suspect_next_ = (suspect_next_ + 1) % suspect_epochs_.size();
        emit_->Emit({.time = sim_->now(),
                     .epoch = msg.epoch,
                     .origin = msg.sender_uid,
                     .b = epoch_,
                     .port = static_cast<std::int16_t>(inport),
                     .kind = obs::FlightEventKind::kEpochHeld});
        return;
      }
    }
    JoinEpoch(msg.epoch,
              jump > kEpochConfirmJump ? "suspect epoch confirmed"
                                       : "higher epoch seen",
              inport, msg.sender_uid);
  }
  PortState& ps = ports_[inport];
  if (!ps.participant) {
    // The link was not usable when this epoch started here; the port state
    // change will trigger a fresh epoch shortly.
    return;
  }
  switch (msg.kind) {
    case ReconfigMsg::Kind::kPosition: {
      bool new_seq = !ps.have_their_pos || ps.their_seq != msg.pos_seq;
      ps.have_their_pos = true;
      ps.their_root = msg.root_uid;
      ps.their_level = msg.level;
      ps.their_seq = msg.pos_seq;
      ps.their_uid = msg.sender_uid;
      if (new_seq) {
        if (config_applied_) {
          // The tree moved after we configured: something raced.  Start
          // over rather than trusting a stale configuration.
          Trigger("position change after configuration");
          return;
        }
        // Their subtree is in flux; any report they sent is void.
        ps.have_report = false;
        ps.report.clear();
      }
      ReevaluatePosition();
      SendAckTo(inport, msg.pos_seq);
      CheckStability();
      break;
    }
    case ReconfigMsg::Kind::kPosAck: {
      if (msg.ack_seq != pos_seq_) {
        break;  // ack of an obsolete position
      }
      ps.acked_my_pos = true;
      RemoveOutgoing(inport, ReconfigMsg::Kind::kPosition, msg.ack_seq);
      bool was_child = ps.claims_me;
      ps.claims_me = msg.is_parent;
      if (was_child && !ps.claims_me) {
        ps.have_report = false;
        ps.report.clear();
      }
      CheckStability();
      break;
    }
    case ReconfigMsg::Kind::kReport: {
      // Always ack (the ack may have been lost).
      SendPayloadAck(inport, ReconfigMsg::Kind::kReportAck, msg.payload_seq);

      emit_->Emit({.time = sim_->now(),
                   .epoch = epoch_,
                   .origin = msg.sender_uid,
                   .a = msg.records.size(),
                   .port = static_cast<std::int16_t>(inport),
                   .kind = obs::FlightEventKind::kReportRecv});
      std::uint64_t fp = Fingerprint(msg.records);
      bool changed = !ps.have_report || Fingerprint(ps.report) != fp;
      ps.claims_me = true;
      ps.have_report = true;
      ps.report = msg.records;
      if (config_applied_ && changed) {
        Trigger("report change after configuration");
        return;
      }
      if (changed) {
        // Our subtree description changed: if we already reported upward,
        // the fingerprint check in CheckStability will re-report.
        CheckStability();
      }
      break;
    }
    case ReconfigMsg::Kind::kReportAck:
      RemoveOutgoing(inport, ReconfigMsg::Kind::kReport, msg.payload_seq);
      break;
    case ReconfigMsg::Kind::kConfig: {
      SendPayloadAck(inport, ReconfigMsg::Kind::kConfigAck, msg.payload_seq);
      if (!config_applied_) {
        emit_->Emit({.time = sim_->now(),
                     .epoch = epoch_,
                     .origin = msg.sender_uid,
                     .a = msg.records.size(),
                     .port = static_cast<std::int16_t>(inport),
                     .kind = obs::FlightEventKind::kConfigRecv});
        Distribute(msg.records, inport);
      }
      break;
    }
    case ReconfigMsg::Kind::kConfigAck:
      RemoveOutgoing(inport, ReconfigMsg::Kind::kConfig, msg.payload_seq);
      RemoveOutgoing(inport, ReconfigMsg::Kind::kDelta, msg.payload_seq);
      RemoveOutgoing(inport, ReconfigMsg::Kind::kMinorConfig, msg.payload_seq);
      break;
    case ReconfigMsg::Kind::kDelta: {
      // Ack, then relay toward the root (or apply if we are the root).
      SendPayloadAck(inport, ReconfigMsg::Kind::kConfigAck, msg.payload_seq);
      if (!config_applied_ || !applied_topo_.has_value()) {
        break;  // a full reconfiguration is already underway
      }
      LinkDelta delta{msg.delta_add, msg.delta_a_uid, msg.delta_a_port,
                      msg.delta_b_uid, msg.delta_b_port};
      if (pos_root_ == self_uid_) {
        ApplyDeltaAsRoot(delta);
      } else {
        m_deltas_relayed_->Increment();
        ReconfigMsg relay = msg;
        relay.sender_uid = self_uid_;
        relay.payload_seq = ++payload_seq_;
        SendReliable(parent_port_, std::move(relay));
      }
      break;
    }
    case ReconfigMsg::Kind::kMinorConfig:
      ApplyMinorConfig(msg, inport);
      break;
  }
}

void ReconfigEngine::OnLinkStateChange(PortNum port, bool up,
                                       Uid neighbor_uid,
                                       PortNum neighbor_port,
                                       const char* reason) {
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch_,
               .origin = neighbor_uid,
               .a = up,
               .port = static_cast<std::int16_t>(port),
               .kind = obs::FlightEventKind::kLinkChange,
               .detail = reason});
  if (!config_->enable_local_reconfig || !config_applied_ ||
      !applied_topo_.has_value()) {
    Trigger(reason);
    return;
  }
  LinkDelta delta{up, self_uid_, port, neighbor_uid, neighbor_port};
  if (!DeltaIsLocalizable(delta)) {
    m_local_fallbacks_->Increment();
    Trigger(reason);
    return;
  }
  m_deltas_originated_->Increment();
  emit_->log().Logf(sim_->now(),
                    "reconfig: local delta (%s link at port %d: %s)",
                    up ? "add" : "remove", port, reason);
  SendDeltaTowardRoot(delta);
}

bool ReconfigEngine::DeltaIsLocalizable(const LinkDelta& delta) const {
  const NetTopology& topo = *applied_topo_;
  int a = topo.IndexOf(delta.a_uid);
  int b = topo.IndexOf(delta.b_uid);
  if (a < 0 || b < 0 || a == b) {
    return false;  // a new or looped switch always needs a full epoch
  }
  SpanningTree tree = ComputeSpanningTree(topo);
  bool exists = false;
  for (const TopoLink& link : topo.switches[a].links) {
    if (link.local_port == delta.a_port) {
      exists = link.remote_switch == b && link.remote_port == delta.b_port;
      if (!exists) {
        return false;  // the port is recorded cabled elsewhere: inconsistent
      }
    }
  }
  if (delta.add) {
    if (exists) {
      return true;  // already present: idempotent
    }
    // A new link is tree-neutral iff it cannot shorten any BFS level:
    // |level(a) - level(b)| <= 1.  (Equal-or-adjacent levels cannot create
    // a better parent with a smaller UID either only if the candidate
    // parent comparison stays unchanged; to stay conservative, also require
    // that the downhill end's parent choice is not displaced.)
    int la = tree.level[a];
    int lb = tree.level[b];
    if (la > lb) {
      std::swap(la, lb);
      // note: b is now conceptually the lower (deeper or equal) end
    }
    if (lb - la > 1) {
      return false;
    }
    // Parent displacement check: the deeper end must keep its parent.
    int deep = tree.level[a] >= tree.level[b] ? a : b;
    int high = deep == a ? b : a;
    if (tree.level[deep] == tree.level[high] + 1 &&
        topo.switches[high].uid < topo.switches[tree.parent[deep]].uid) {
      return false;  // the new link would become deep's parent link
    }
    return true;
  }
  // Removal: only a *non-tree* link is localizable.
  if (!exists) {
    return true;  // already gone: idempotent
  }
  for (const TopoLink& link : topo.switches[a].links) {
    if (link.local_port == delta.a_port) {
      return !tree.IsTreeLink(topo, a, link);
    }
  }
  return false;
}

void ReconfigEngine::SendDeltaTowardRoot(const LinkDelta& delta) {
  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kDelta;
  msg.epoch = epoch_;
  msg.sender_uid = self_uid_;
  msg.payload_seq = ++payload_seq_;
  msg.delta_add = delta.add;
  msg.delta_a_uid = delta.a_uid;
  msg.delta_a_port = static_cast<std::uint8_t>(delta.a_port);
  msg.delta_b_uid = delta.b_uid;
  msg.delta_b_port = static_cast<std::uint8_t>(delta.b_port);
  if (pos_root_ == self_uid_) {
    ApplyDeltaAsRoot(delta);
    return;
  }
  SendReliable(parent_port_, std::move(msg));
}

void ReconfigEngine::ApplyDeltaAsRoot(const LinkDelta& delta) {
  NetTopology topo = *applied_topo_;
  int a = topo.IndexOf(delta.a_uid);
  int b = topo.IndexOf(delta.b_uid);
  if (a < 0 || b < 0) {
    Trigger("delta names unknown switch");
    return;
  }
  bool changed = false;
  if (delta.add) {
    bool present = false;
    for (const TopoLink& link : topo.switches[a].links) {
      present |= link.local_port == delta.a_port;
    }
    if (!present) {
      topo.switches[a].links.push_back(
          {delta.a_port, b, delta.b_port});
      topo.switches[b].links.push_back(
          {delta.b_port, a, delta.a_port});
      changed = true;
    }
  } else {
    auto& la = topo.switches[a].links;
    auto before = la.size();
    la.erase(std::remove_if(la.begin(), la.end(),
                            [&](const TopoLink& l) {
                              return l.local_port == delta.a_port;
                            }),
             la.end());
    auto& lb = topo.switches[b].links;
    lb.erase(std::remove_if(lb.begin(), lb.end(),
                            [&](const TopoLink& l) {
                              return l.local_port == delta.b_port;
                            }),
             lb.end());
    changed = la.size() != before;
  }
  if (!changed) {
    return;  // duplicate delta from the other end: already applied
  }
  if (!topo.Validate().empty()) {
    Trigger("delta produced invalid topology");
    return;
  }
  applied_topo_ = topo;
  ++applied_version_;
  emit_->log().Logf(sim_->now(), "reconfig: minor config v%u (%s link)",
                    applied_version_, delta.add ? "added" : "removed");

  // Redistribute down the standing tree and apply locally.
  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kMinorConfig;
  msg.epoch = epoch_;
  msg.sender_uid = self_uid_;
  msg.config_version = applied_version_;
  msg.records = TopologyToRecords(topo);
  for (PortNum p : participants_) {
    if (ports_[p].claims_me) {
      ReconfigMsg copy = msg;
      copy.payload_seq = ++payload_seq_;
      SendReliable(p, std::move(copy));
    }
  }
  m_local_updates_applied_->Increment();
  int self_index = topo.IndexOf(self_uid_);
  owner_->ApplyConfig(topo, self_index, epoch_);
}

void ReconfigEngine::ApplyMinorConfig(const ReconfigMsg& msg, PortNum from) {
  SendPayloadAck(from, ReconfigMsg::Kind::kConfigAck, msg.payload_seq);

  if (!config_applied_ || msg.config_version <= applied_version_) {
    return;  // stale or superseded
  }
  NetTopology topo = RecordsToTopology(msg.records);
  int self_index = topo.IndexOf(self_uid_);
  if (self_index < 0) {
    Trigger("minor config omits this switch");
    return;
  }
  applied_topo_ = topo;
  applied_version_ = msg.config_version;
  m_local_updates_applied_->Increment();
  emit_->log().Logf(sim_->now(), "reconfig: minor config v%u applied",
                    applied_version_);
  // Forward down the standing tree.
  for (PortNum p : participants_) {
    if (p != from && ports_[p].claims_me) {
      ReconfigMsg copy = msg;
      copy.sender_uid = self_uid_;
      copy.payload_seq = ++payload_seq_;
      SendReliable(p, std::move(copy));
    }
  }
  owner_->ApplyConfig(topo, self_index, epoch_);
}

void ReconfigEngine::CheckStability() {
  if (config_applied_ || !in_progress_) {
    return;
  }
  for (PortNum p : participants_) {
    const PortState& ps = ports_[p];
    if (!ps.acked_my_pos) {
      return;
    }
    if (ps.claims_me && !ps.have_report) {
      return;
    }
  }
  // Stable.
  if (pos_root_ == self_uid_) {
    Terminate();
    return;
  }
  // Report the stable subtree to the parent, unless the identical report
  // has already been sent for this position.
  std::vector<SwitchRecord> records = BuildSubtreeRecords();
  std::uint64_t fp = Fingerprint(records) ^ (std::uint64_t{pos_seq_} << 32);
  if (fp == last_report_fingerprint_) {
    return;
  }
  last_report_fingerprint_ = fp;
  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kReport;
  msg.epoch = epoch_;
  msg.sender_uid = self_uid_;
  msg.payload_seq = ++payload_seq_;
  msg.records = std::move(records);
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch_,
               .origin = parent_uid_,
               .a = msg.records.size(),
               .port = static_cast<std::int16_t>(parent_port_),
               .kind = obs::FlightEventKind::kReportSend});
  SendReliable(parent_port_, std::move(msg));
}

std::vector<SwitchRecord> ReconfigEngine::BuildSubtreeRecords() const {
  std::vector<SwitchRecord> records;
  SwitchRecord self;
  self.uid = self_uid_;
  self.proposed_num = proposed_num_;
  self.host_ports = owner_->HostPorts().bits();
  for (PortNum p : participants_) {
    const PortState& ps = ports_[p];
    self.links.push_back(SwitchRecord::LinkRec{
        static_cast<std::uint8_t>(p), ps.neighbor_uid,
        static_cast<std::uint8_t>(ps.neighbor_port)});
  }
  records.push_back(std::move(self));
  for (PortNum p : participants_) {
    const PortState& ps = ports_[p];
    if (ps.claims_me && ps.have_report) {
      records.insert(records.end(), ps.report.begin(), ps.report.end());
    }
  }
  return records;
}

std::uint64_t ReconfigEngine::Fingerprint(
    const std::vector<SwitchRecord>& records) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const SwitchRecord& rec : records) {
    mix(rec.uid.value());
    mix(rec.proposed_num);
    mix(rec.host_ports);
    for (const SwitchRecord::LinkRec& link : rec.links) {
      mix(link.local_port);
      mix(link.remote_uid.value());
      mix(link.remote_port);
    }
  }
  return h;
}

void ReconfigEngine::Terminate() {
  last_termination_time_ = sim_->now();
  std::vector<SwitchRecord> records = BuildSubtreeRecords();
  NetTopology topo = RecordsToTopology(records);
  AssignSwitchNumbers(&topo);
  emit_->Emit({.time = sim_->now(),
               .epoch = epoch_,
               .a = static_cast<std::uint64_t>(topo.size()),
               .kind = obs::FlightEventKind::kTermination});
  Distribute(TopologyToRecords(topo), /*from=*/-1);
}

void ReconfigEngine::Distribute(const std::vector<SwitchRecord>& records,
                                PortNum from) {
  NetTopology topo = RecordsToTopology(records);
  int self_index = topo.IndexOf(self_uid_);
  if (self_index < 0) {
    emit_->log().Logf(sim_->now(),
                      "reconfig: config omits this switch; retrigger");
    Trigger("config omitted self");
    return;
  }
  config_applied_ = true;
  in_progress_ = false;
  proposed_num_ = topo.switches[self_index].assigned_num;
  applied_topo_ = topo;
  applied_version_ = 0;

  // Step 4 continued: hand the configuration down the tree.
  std::uint32_t seq = ++payload_seq_;
  for (PortNum p : participants_) {
    const PortState& ps = ports_[p];
    if (p == from || !ps.claims_me) {
      continue;
    }
    ReconfigMsg msg;
    msg.kind = ReconfigMsg::Kind::kConfig;
    msg.epoch = epoch_;
    msg.sender_uid = self_uid_;
    msg.payload_seq = seq;
    msg.records = records;
    SendReliable(p, std::move(msg));
  }

  // Step 5: compute and load the local forwarding table.
  m_completions_->Increment();
  last_config_time_ = sim_->now();
  if (last_join_time_ >= 0) {
    m_epoch_ms_->Add(static_cast<double>(sim_->now() - last_join_time_) /
                     1e6);
  }
  owner_->ApplyConfig(topo, self_index, epoch_);
}

}  // namespace autonet
