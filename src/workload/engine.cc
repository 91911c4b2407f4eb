#include "src/workload/engine.h"

#include <algorithm>

namespace autonet {
namespace workload {

namespace {

// Engine bookkeeping cadence: timeout checks, stream emissions, excused-time
// accrual.  Completions are handled inline in the delivery hook, so the tick
// does not bound throughput.
constexpr Tick kEngineTick = kMillisecond;

// Tag layout in the first 8 payload bytes: magic | class | flow | seq.
constexpr std::uint8_t kTagMagic = 0x57;
constexpr std::uint8_t kClassRequest = 1;
constexpr std::uint8_t kClassResponse = 2;
constexpr std::uint8_t kClassFrame = 3;
constexpr std::uint8_t kClassChunk = 4;

std::uint64_t MakeTag(std::uint8_t cls, std::uint16_t flow,
                      std::uint32_t seq) {
  return (std::uint64_t{kTagMagic} << 56) | (std::uint64_t{cls} << 48) |
         (std::uint64_t{flow} << 32) | seq;
}

}  // namespace

WorkloadEngine::WorkloadEngine(Network* net, const Spec& spec,
                               const SloBudgetConfig& budget_config,
                               int diameter)
    : net_(net), spec_(spec),
      budget_(ResolveBudget(budget_config, diameter)) {}

WorkloadEngine::~WorkloadEngine() {
  if (!finalized_ && running_) {
    if (tick_armed_) {
      net_->sim().Cancel(tick_id_);
      tick_armed_ = false;
    }
    net_->SetClientDeliveryHook(nullptr);
  }
}

void WorkloadEngine::Start() {
  if (running_ || finalized_ || !spec_.enabled()) {
    return;
  }
  running_ = true;
  const int n = net_->num_hosts();
  // Flow sets per kind.  RPC and streams cross the network (stride ~N/2 so
  // paths span the diameter); the collective runs on the host ring.  A
  // single-host network degrades to an empty fleet.
  if (n >= 2) {
    int stride = spec_.kind == Kind::kAllreduce ? 1 : std::max(1, n / 2);
    obs::MetricRegistry& metrics = net_->sim().metrics();
    for (int i = 0; i < n; ++i) {
      int j = (i + stride) % n;
      if (j == i) {
        continue;
      }
      Flow flow;
      flow.src = i;
      flow.dst = j;
      flow.id = static_cast<std::uint16_t>(flows_.size());
      const TopoSpec& spec = net_->spec();
      flow.slo = FlowSlo(spec.hosts[i].name + "->" + spec.hosts[j].name,
                         static_cast<Tick>(budget_.floor_ms * 1e6));
      std::string prefix =
          "switch." + spec.switches[spec.hosts[i].primary_switch].name +
          ".workload.";
      flow.ops_counter = metrics.GetCounter(prefix + "ops");
      flow.timeout_counter = metrics.GetCounter(prefix + "timeouts");
      flow.miss_counter = metrics.GetCounter(prefix + "deadline_misses");
      flow.op_ms = metrics.GetHistogram(prefix + "op_ms");
      flows_.push_back(std::move(flow));
    }
  }
  net_->SetClientDeliveryHook(
      [this](int host, const Delivery& d) { OnDelivery(host, d); });

  Tick now = net_->sim().now();
  last_tick_ = now;
  RefreshComponents();
  if (spec_.kind == Kind::kAllreduce) {
    if (!flows_.empty()) {
      StartStep(now);
    }
  } else {
    for (Flow& flow : flows_) {
      bool svc = Serviceable(flow);
      if (spec_.kind == Kind::kRpc) {
        TickRpc(flow, now, svc);
      } else {
        flow.next_emit = now;
        TickStreams(flow, now, svc);
      }
    }
  }
  tick_id_ = net_->sim().ScheduleAfter(kEngineTick, [this] { OnTick(); });
  tick_armed_ = true;
}

void WorkloadEngine::SetPhase(Phase phase) { phase_ = phase; }

void WorkloadEngine::Stop() { stopped_ = true; }

bool WorkloadEngine::Drained() const {
  for (const Flow& flow : flows_) {
    if (!flow.outstanding.empty()) {
      return false;
    }
  }
  return true;
}

void WorkloadEngine::OnTick() {
  tick_armed_ = false;
  if (finalized_ || !running_) {
    return;
  }
  Tick now = net_->sim().now();
  Tick dt = now - last_tick_;
  RefreshComponents();
  for (Flow& flow : flows_) {
    bool svc = Serviceable(flow);
    flow.slo.Advance(dt, svc);
    switch (spec_.kind) {
      case Kind::kRpc:
        TickRpc(flow, now, svc);
        break;
      case Kind::kStreams:
        TickStreams(flow, now, svc);
        break;
      case Kind::kAllreduce:
        TickAllreduce(flow, now, svc);
        break;
      case Kind::kNone:
        break;
    }
  }
  last_tick_ = now;
  tick_id_ = net_->sim().ScheduleAfter(kEngineTick, [this] { OnTick(); });
  tick_armed_ = true;
}

bool WorkloadEngine::SendOp(Flow& flow, Op& op, std::uint8_t cls,
                            std::size_t bytes) {
  bool ok = net_->SendTagged(flow.src, flow.dst, bytes, kWorkloadEtherType,
                             MakeTag(cls, flow.id, op.seq));
  flow.slo.OnOffered(net_->sim().now(), ok);
  return ok;
}

void WorkloadEngine::TickRpc(Flow& flow, Tick now, bool serviceable) {
  for (auto it = flow.outstanding.begin(); it != flow.outstanding.end();) {
    Op& op = *it;
    if (!op.accepted) {
      // The driver refused the send (no address / buffer full): retry.
      if (stopped_) {
        it = flow.outstanding.erase(it);
        continue;
      }
      op.sent_at = now;
      op.phase = phase_;
      op.serviceable_at_send = serviceable;
      op.accepted = SendOp(flow, op, kClassRequest, spec_.data_bytes);
      ++it;
    } else if (now - op.sent_at >= spec_.timeout) {
      flow.slo.OnTimeout();
      flow.timeout_counter->Increment();
      if (stopped_) {
        if (op.phase == Phase::kRecovery && op.serviceable_at_send &&
            serviceable) {
          ++recovery_lost_;
        }
        it = flow.outstanding.erase(it);
      } else {
        // Retry under a fresh seq; a straggling old response is stale.
        op.seq = flow.next_seq++;
        op.sent_at = now;
        op.phase = phase_;
        op.serviceable_at_send = serviceable;
        op.accepted = SendOp(flow, op, kClassRequest, spec_.data_bytes);
        ++it;
      }
    } else {
      ++it;
    }
  }
  while (!stopped_ &&
         static_cast<int>(flow.outstanding.size()) < spec_.window) {
    Op op;
    op.seq = flow.next_seq++;
    op.sent_at = now;
    op.phase = phase_;
    op.serviceable_at_send = serviceable;
    op.accepted = SendOp(flow, op, kClassRequest, spec_.data_bytes);
    flow.outstanding.push_back(op);
  }
}

void WorkloadEngine::TickStreams(Flow& flow, Tick now, bool serviceable) {
  const Tick prune_after = std::max(spec_.timeout, 2 * spec_.deadline);
  for (auto it = flow.outstanding.begin(); it != flow.outstanding.end();) {
    Op& op = *it;
    if (!op.missed && now > op.sent_at + spec_.deadline) {
      op.missed = true;
      flow.slo.OnDeadlineMiss(phase_);
      flow.miss_counter->Increment();
    }
    if (now - op.sent_at > prune_after) {
      // Lost in flight; if it was sent and prunes on a serviceable flow
      // after quiescence, it is lost forever.
      if (op.phase == Phase::kRecovery && op.serviceable_at_send &&
          serviceable) {
        ++recovery_lost_;
      }
      it = flow.outstanding.erase(it);
    } else {
      ++it;
    }
  }
  if (stopped_) {
    return;
  }
  if (flow.next_emit < 0) {
    flow.next_emit = now;
  }
  while (flow.next_emit <= now) {
    Op op;
    op.seq = flow.next_seq++;
    op.sent_at = now;
    op.phase = phase_;
    op.serviceable_at_send = serviceable;
    op.accepted = SendOp(flow, op, kClassFrame, spec_.data_bytes);
    if (op.accepted) {
      flow.outstanding.push_back(op);
    }
    flow.next_emit += spec_.period;
  }
}

void WorkloadEngine::TickAllreduce(Flow& flow, Tick now, bool serviceable) {
  if (flow.outstanding.empty()) {
    return;
  }
  Op& op = flow.outstanding.front();
  if (op.accepted && now - op.sent_at < spec_.timeout) {
    return;
  }
  if (op.accepted) {
    flow.slo.OnTimeout();
    flow.timeout_counter->Increment();
  }
  if (stopped_) {
    if (op.accepted && op.phase == Phase::kRecovery &&
        op.serviceable_at_send && serviceable) {
      ++recovery_lost_;
    }
    flow.outstanding.clear();
    return;
  }
  // Retransmit the same chunk (same seq: it still belongs to this step).
  op.sent_at = now;
  op.phase = phase_;
  op.serviceable_at_send = serviceable;
  op.accepted = SendOp(flow, op, kClassChunk, spec_.data_bytes);
}

void WorkloadEngine::StartStep(Tick now) {
  ++step_seq_;
  step_start_ = now;
  for (Flow& flow : flows_) {
    flow.step_done = false;
    Op op;
    op.seq = step_seq_;
    op.sent_at = now;
    op.phase = phase_;
    op.serviceable_at_send = Serviceable(flow);
    op.accepted = SendOp(flow, op, kClassChunk, spec_.data_bytes);
    flow.outstanding.assign(1, op);
  }
}

void WorkloadEngine::CompleteOp(Flow& flow, std::uint32_t seq) {
  auto it = std::find_if(flow.outstanding.begin(), flow.outstanding.end(),
                         [&](const Op& op) { return op.seq == seq; });
  if (it == flow.outstanding.end()) {
    return;  // stale response of a timed-out attempt
  }
  Tick now = net_->sim().now();
  double latency_ms = static_cast<double>(now - it->sent_at) / 1e6;
  flow.slo.OnCompleted(now, it->phase, latency_ms);
  ++ops_completed_;
  flow.ops_counter->Increment();
  flow.op_ms->Add(latency_ms);
  flow.outstanding.erase(it);
  if (!stopped_ && spec_.kind == Kind::kRpc) {
    // Closed loop: a completion immediately clocks out the next request.
    Op op;
    op.seq = flow.next_seq++;
    op.sent_at = now;
    op.phase = phase_;
    op.serviceable_at_send = Serviceable(flow);
    op.accepted = SendOp(flow, op, kClassRequest, spec_.data_bytes);
    flow.outstanding.push_back(op);
  }
}

void WorkloadEngine::OnDelivery(int host, const Delivery& delivery) {
  if (!running_ || finalized_) {
    return;
  }
  const Packet& p = *delivery.packet;
  if (p.ether_type != kWorkloadEtherType) {
    return;
  }
  if (!delivery.intact()) {
    ++damaged_;
    return;
  }
  if (p.payload.size() < 8) {
    return;
  }
  std::uint64_t tag = DataTag::Of(p.payload);
  if (static_cast<std::uint8_t>(tag >> 56) != kTagMagic) {
    return;
  }
  std::uint8_t cls = static_cast<std::uint8_t>(tag >> 48);
  std::uint16_t flow_id = static_cast<std::uint16_t>(tag >> 32);
  std::uint32_t seq = static_cast<std::uint32_t>(tag);
  if (flow_id >= flows_.size()) {
    return;
  }
  Flow& flow = flows_[flow_id];
  Tick now = net_->sim().now();
  switch (cls) {
    case kClassRequest: {
      if (host != flow.dst) {
        return;
      }
      // Server side: answer even after Stop so in-flight requests complete.
      // A refused response surfaces as a client timeout.
      net_->SendTagged(flow.dst, flow.src, spec_.response_bytes,
                       kWorkloadEtherType,
                       MakeTag(kClassResponse, flow_id, seq));
      return;
    }
    case kClassResponse:
      if (host != flow.src) {
        return;
      }
      CompleteOp(flow, seq);
      return;
    case kClassFrame: {
      if (host != flow.dst) {
        return;
      }
      auto it =
          std::find_if(flow.outstanding.begin(), flow.outstanding.end(),
                       [&](const Op& op) { return op.seq == seq; });
      if (it == flow.outstanding.end()) {
        return;
      }
      double latency_ms = static_cast<double>(now - it->sent_at) / 1e6;
      if (!it->missed && now > it->sent_at + spec_.deadline) {
        flow.slo.OnDeadlineMiss(phase_);
        flow.miss_counter->Increment();
      }
      flow.slo.OnCompleted(now, it->phase, latency_ms);
      ++ops_completed_;
      flow.ops_counter->Increment();
      flow.op_ms->Add(latency_ms);
      flow.outstanding.erase(it);
      return;
    }
    case kClassChunk: {
      if (host != flow.dst || flow.step_done || flow.outstanding.empty() ||
          seq != step_seq_ || flow.outstanding.front().seq != seq) {
        return;
      }
      Op op = flow.outstanding.front();
      double latency_ms = static_cast<double>(now - op.sent_at) / 1e6;
      flow.slo.OnCompleted(now, op.phase, latency_ms);
      ++ops_completed_;
      flow.ops_counter->Increment();
      flow.op_ms->Add(latency_ms);
      flow.outstanding.clear();
      flow.step_done = true;
      // Barrier: the next step starts only once every chunk arrived.
      for (const Flow& other : flows_) {
        if (!other.step_done) {
          return;
        }
      }
      ++steps_completed_;
      step_ms_.Add(static_cast<double>(now - step_start_) / 1e6);
      if (!stopped_) {
        StartStep(now);
      }
      return;
    }
    default:
      return;
  }
}

void WorkloadEngine::RefreshComponents() {
  std::uint64_t gen = net_->fault_generation();
  if (gen == comp_generation_) {
    return;
  }
  comp_generation_ = gen;
  components_ = net_->HealthyComponents();
}

bool WorkloadEngine::Serviceable(const Flow& flow) const {
  int a = net_->HostComponent(flow.src, components_);
  return a >= 0 && a == net_->HostComponent(flow.dst, components_);
}

SloReport WorkloadEngine::Finalize() {
  SloReport report;
  report.spec = spec_;
  report.budget = budget_;
  if (finalized_) {
    return report;
  }
  finalized_ = true;
  if (tick_armed_) {
    net_->sim().Cancel(tick_id_);
    tick_armed_ = false;
  }
  if (running_) {
    net_->SetClientDeliveryHook(nullptr);
  }
  running_ = false;

  Tick now = net_->sim().now();
  RefreshComponents();
  for (Flow& flow : flows_) {
    bool svc = Serviceable(flow);
    for (const Op& op : flow.outstanding) {
      if (op.accepted && op.phase == Phase::kRecovery &&
          op.serviceable_at_send && svc) {
        ++recovery_lost_;
      }
    }
    flow.slo.Finalize(now, !flow.outstanding.empty());

    SloReport::FlowStats fs;
    fs.name = flow.slo.name();
    fs.offered = flow.slo.offered();
    fs.rejected = flow.slo.rejected();
    fs.completed = flow.slo.completed();
    fs.timeouts = flow.slo.timeouts();
    fs.deadline_misses = flow.slo.deadline_misses(Phase::kSteady) +
                         flow.slo.deadline_misses(Phase::kFault) +
                         flow.slo.deadline_misses(Phase::kRecovery);
    fs.max_outage_ms = flow.slo.max_outage_ms();
    fs.outage_windows = flow.slo.outage_windows();
    fs.excused_ms = flow.slo.excused_ms();
    report.flows.push_back(fs);

    report.offered += fs.offered;
    report.rejected += fs.rejected;
    report.completed += fs.completed;
    report.timeouts += fs.timeouts;
    report.deadline_miss_steady += flow.slo.deadline_misses(Phase::kSteady);
    report.deadline_miss_fault += flow.slo.deadline_misses(Phase::kFault);
    report.deadline_miss_recovery +=
        flow.slo.deadline_misses(Phase::kRecovery);
    report.steady_latency_ms.Merge(flow.slo.latency_ms(Phase::kSteady));
    report.fault_latency_ms.Merge(flow.slo.latency_ms(Phase::kFault));
    report.recovery_latency_ms.Merge(flow.slo.latency_ms(Phase::kRecovery));
    report.outage_windows += fs.outage_windows;
    if (fs.max_outage_ms > report.max_outage_ms) {
      report.max_outage_ms = fs.max_outage_ms;
      report.max_outage_flow = fs.name;
    }
  }
  report.damaged = damaged_;
  report.recovery_lost = recovery_lost_;
  report.step_ms = step_ms_;
  report.steps_completed = steps_completed_;
  return report;
}

}  // namespace workload
}  // namespace autonet
