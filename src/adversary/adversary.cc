#include "src/adversary/adversary.h"

#include <cstdarg>
#include <cstdio>

#include "src/autopilot/port_state.h"
#include "src/autopilot/reconfig.h"
#include "src/check/fuzz.h"
#include "src/common/hash.h"
#include "src/common/packet.h"
#include "src/obs/flight.h"

namespace autonet {
namespace adversary {

namespace {

// How long a phase-snipe cut is left in place before the engine heals it and
// stalks the next phase window: long enough to land inside the wave it
// disrupted, short enough that snipes do not degenerate into permanent cuts.
constexpr Tick kSnipeDwell = 250 * kMillisecond;

// Flap-resonance restores this long after each cut; the interesting timing
// is the *re-cut*, which waits for the skeptic to re-admit the link.
constexpr Tick kFlapDown = 50 * kMillisecond;

// A fuzz body lands 0.2-2 ms after its move.
constexpr Tick kFuzzJitterMin = 200 * kMicrosecond;
constexpr Tick kFuzzJitterMax = 2 * kMillisecond;

// A mutated address reply whose epoch landed plausibly newer can re-address
// a host; the driver recovers from genuine pings via its hold-then-confirm
// path within two ping rounds.  A fuzz run is driven this long past its last
// host-targeted body before the oracles judge it.
constexpr Tick kDriverRecovery = 8 * kSecond;

const PortState kAllPortStates[] = {
    PortState::kDead,      PortState::kChecking,   PortState::kHost,
    PortState::kSwitchWho, PortState::kSwitchLoop, PortState::kSwitchGood,
};

// Delivers `pkt` straight into `sw`'s control-processor reassembly port as
// an intact packet that arrived on `port`: corruption that escaped the CRC.
// If this clobbers a real in-flight reception, that packet is lost — legal
// link behavior the protocols already tolerate.
void DeliverCrcEscaped(Network& net, int sw, PortNum port,
                       const PacketRef& pkt) {
  CpPort& cp = net.switch_at(sw).cp_port();
  cp.NoteArrivalPort(port);
  cp.SendBegin(pkt);
  for (std::uint32_t i = 0; i < pkt->WireSize(); ++i) {
    cp.SendByte(i);
  }
  cp.SendEnd(EndFlags{});
}

}  // namespace

Engine::Engine(Network* net, Spec spec, std::uint64_t seed)
    : net_(net),
      spec_(spec),
      // Mix the strategy in so two adversaries with the same run seed (e.g.
      // a scenario-level and a campaign-level spec in different runs) do not
      // mirror each other's choices.
      rng_(seed * kFnvPrime ^
           (static_cast<std::uint64_t>(spec.strategy) + 0xAD5EC0DEull)),
      poll_(&net->sim(), [this] { Poll(); }) {}

void Engine::Arm(Tick start) {
  if (!spec_.enabled()) {
    return;
  }
  Tick now = net_->sim().now();
  armed_at_ = start < now ? now : start;
  // Two extra periods of slack: the poll at/after the window edge performs
  // the final heal, and the runner drives the sim through end().
  end_ = armed_at_ + spec_.duration + 2 * spec_.effective_period() +
         kMillisecond;
  if (spec_.strategy == Strategy::kFuzz) {
    end_ += kFuzzJitterMax + kDriverRecovery;
    for (int h = 0; h < net_->num_hosts(); ++h) {
      srp_clients_.push_back(std::make_unique<SrpClient>(&net_->driver_at(h)));
    }
  }
  poll_.Start(spec_.effective_period(),
              armed_at_ - now + spec_.effective_period());
  Note("armed (%s)", spec_.ToText().c_str());
}

int Engine::faults() const {
  bool floods =
      spec_.strategy == Strategy::kStorm || spec_.strategy == Strategy::kFuzz;
  return moves_ * (floods ? spec_.burst : 1);
}

std::uint64_t Engine::TranscriptHash() const {
  std::uint64_t h = kFnvOffset;
  for (const std::string& line : transcript_) {
    h = Fnv1a(Fnv1a(h, line), "\n");
  }
  return h;
}

void Engine::Poll() {
  if (finished_) {
    return;
  }
  if (net_->sim().now() >= armed_at_ + spec_.duration) {
    Finish();
    return;
  }
  switch (spec_.strategy) {
    case Strategy::kNone:
      break;
    case Strategy::kRootChase:
      StepRootChase();
      break;
    case Strategy::kPhaseSnipe:
      StepPhaseSnipe();
      break;
    case Strategy::kStorm:
      StepStorm();
      break;
    case Strategy::kFlapResonance:
      StepFlapResonance();
      break;
    case Strategy::kCorruptTable:
      StepCorruptTable();
      break;
    case Strategy::kCorruptSkeptic:
      StepCorruptSkeptic();
      break;
    case Strategy::kCorruptPort:
      StepCorruptPort();
      break;
    case Strategy::kCorruptEpoch:
      StepCorruptEpoch();
      break;
    case Strategy::kFuzz:
      StepFuzz();
      break;
  }
}

void Engine::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  RestoreAllCuts("retiring");
  Note("done: %d move(s)", moves_);
  poll_.Stop();
}

// --- strategies ---

void Engine::StepRootChase() {
  if (moves_ >= spec_.moves || !StableNow()) {
    return;
  }
  int root = FindRootSwitch();
  if (root < 0) {
    return;
  }
  RestoreAllCuts("chasing root");
  std::vector<int> cands = CandidateCablesAt(root);
  if (cands.empty()) {
    return;
  }
  int cable = cands[rng_.UniformInt(0, static_cast<int>(cands.size()) - 1)];
  CutNow(cable);
  MarkFlight(root, "root-chase");
  Note("cut cable %d at root %s (epoch %llu)", cable,
       net_->switch_at(root).name().c_str(),
       static_cast<unsigned long long>(net_->autopilot_at(root).epoch()));
  ++moves_;
}

void Engine::StepPhaseSnipe() {
  Tick now = net_->sim().now();
  if (!cuts_.empty()) {
    if (now - last_cut_at_ >= kSnipeDwell) {
      RestoreAllCuts("snipe dwell over");
    }
    return;  // one snipe in flight at a time
  }
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> victims;
  if (spec_.phase == "monitor") {
    // The monitor snipe targets the converged steady state.
    if (StableNow()) {
      victims = AliveSwitches();
    }
  } else {
    for (int sw : AliveSwitches()) {
      if (spec_.phase == PhaseOf(sw)) {
        victims.push_back(sw);
      }
    }
  }
  if (victims.empty()) {
    return;
  }
  int sw = victims[rng_.UniformInt(0, static_cast<int>(victims.size()) - 1)];
  std::vector<int> cands = CandidateCablesAt(sw);
  if (cands.empty()) {
    return;
  }
  int cable = cands[rng_.UniformInt(0, static_cast<int>(cands.size()) - 1)];
  CutNow(cable);
  MarkFlight(sw, "phase-snipe");
  Note("cut cable %d during %s at %s (epoch %llu)", cable, spec_.phase.c_str(),
       net_->switch_at(sw).name().c_str(),
       static_cast<unsigned long long>(net_->autopilot_at(sw).epoch()));
  ++moves_;
}

void Engine::StepStorm() {
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> alive = AliveSwitches();
  if (alive.empty()) {
    return;
  }
  int sw = alive[rng_.UniformInt(0, static_cast<int>(alive.size()) - 1)];
  std::uint64_t epoch = net_->autopilot_at(sw).epoch();
  for (int b = 0; b < spec_.burst; ++b) {
    // A position packet near the victim's real epoch claiming a tiny (i.e.
    // election-winning) root uid: the worst believable lie.
    ReconfigMsg msg;
    msg.kind = ReconfigMsg::Kind::kPosition;
    msg.epoch = epoch + static_cast<std::uint64_t>(rng_.UniformInt(1, 3));
    msg.sender_uid = Uid(rng_.NextU64());
    msg.root_uid = Uid(static_cast<std::uint64_t>(rng_.UniformInt(1, 7)));
    msg.level = static_cast<std::uint16_t>(rng_.UniformInt(0, 3));
    msg.pos_seq = static_cast<std::uint32_t>(rng_.UniformInt(1, 1000));

    PortNum port = static_cast<PortNum>(
        rng_.UniformInt(kFirstExternalPort, kPortsPerSwitch - 1));
    Packet p;
    p.dest = kAddrLocalCp;
    p.src = OneHopAddress(port);
    p.type = PacketType::kReconfig;
    p.payload = msg.Serialize();
    DeliverCrcEscaped(*net_, sw, port, MakePacket(std::move(p)));
  }
  MarkFlight(sw, "storm");
  Note("flooded %s with %d Byzantine positions near epoch %llu",
       net_->switch_at(sw).name().c_str(), spec_.burst,
       static_cast<unsigned long long>(epoch));
  ++moves_;
}

void Engine::StepFlapResonance() {
  Tick now = net_->sim().now();
  if (flap_cable_ < 0) {
    std::vector<int> cands;
    const auto& cables = net_->spec().cables;
    for (int i = 0; i < static_cast<int>(cables.size()); ++i) {
      if (net_->switch_alive(cables[i].sw_a) &&
          net_->switch_alive(cables[i].sw_b)) {
        cands.push_back(i);
      }
    }
    if (cands.empty()) {
      return;
    }
    flap_cable_ =
        cands[rng_.UniformInt(0, static_cast<int>(cands.size()) - 1)];
    Note("targeting cable %d", flap_cable_);
  }
  const TopoSpec::CableSpec& c = net_->spec().cables[flap_cable_];
  if (!net_->switch_alive(c.sw_a) || !net_->switch_alive(c.sw_b)) {
    return;
  }
  if (cuts_.count(flap_cable_) != 0) {
    if (now - last_cut_at_ >= kFlapDown) {
      RestoreNow(flap_cable_);
      Note("restored cable %d", flap_cable_);
    }
    return;
  }
  if (moves_ >= spec_.moves) {
    return;
  }
  // The resonant edge: cut again the instant both endpoint skeptics have
  // served their hold-down and re-admitted the link.
  if (net_->autopilot_at(c.sw_a).port_state(c.port_a) !=
          PortState::kSwitchGood ||
      net_->autopilot_at(c.sw_b).port_state(c.port_b) !=
          PortState::kSwitchGood) {
    return;
  }
  int level = net_->autopilot_at(c.sw_a).skeptic_level(c.port_a, false);
  CutNow(flap_cable_);
  MarkFlight(c.sw_a, "flap-resonance");
  Note("re-cut cable %d as it was re-admitted (status skeptic level %d)",
       flap_cable_, level);
  ++moves_;
}

void Engine::StepCorruptTable() {
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> alive = AliveSwitches();
  if (alive.empty()) {
    return;
  }
  int sw = alive[rng_.UniformInt(0, static_cast<int>(alive.size()) - 1)];
  // Prefer a real registered host address — flipping a live route is
  // strictly worse for the network than flipping an unused entry.
  std::vector<std::uint16_t> host_addrs;
  for (int h = 0; h < net_->num_hosts(); ++h) {
    if (net_->driver_at(h).HasAddress()) {
      host_addrs.push_back(net_->driver_at(h).short_address().value());
    }
  }
  ShortAddress victim =
      !host_addrs.empty() && rng_.Bernoulli(0.75)
          ? ShortAddress(host_addrs[rng_.UniformInt(
                0, static_cast<int>(host_addrs.size()) - 1)])
          : ShortAddress(static_cast<std::uint16_t>(
                rng_.UniformInt(0x010, 0x7EF)));
  PortNum inport = static_cast<PortNum>(
      rng_.UniformInt(0, kPortsPerSwitch - 1));
  std::uint16_t mask =
      static_cast<std::uint16_t>(rng_.UniformInt(1, 0x3FFF));
  net_->switch_at(sw).CorruptTableEntry(inport, victim, mask);
  MarkFlight(sw, "corrupt-table");
  Note("flipped table bits 0x%04x at %s [inport %d, addr 0x%03x]", mask,
       net_->switch_at(sw).name().c_str(), inport, victim.value());
  ++moves_;
}

void Engine::StepCorruptSkeptic() {
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> alive = AliveSwitches();
  if (alive.empty()) {
    return;
  }
  int sw = alive[rng_.UniformInt(0, static_cast<int>(alive.size()) - 1)];
  std::vector<PortNum> ports = AttachedPorts(sw);
  if (ports.empty()) {
    return;
  }
  PortNum p =
      ports[rng_.UniformInt(0, static_cast<int>(ports.size()) - 1)];
  bool connectivity = rng_.Bernoulli(0.5);
  Tick now = net_->sim().now();
  int variant = static_cast<int>(rng_.UniformInt(0, 2));
  int level;
  Tick last_event = now;
  const char* shape;
  if (variant == 0) {
    level = -static_cast<int>(rng_.UniformInt(1, 100));
    shape = "negative level";
  } else if (variant == 1) {
    level = static_cast<int>(rng_.UniformInt(63, 1 << 20));
    shape = "level beyond max";
  } else {
    level = static_cast<int>(rng_.UniformInt(0, 62));
    last_event = now + kSecond * rng_.UniformInt(1, 3600);
    shape = "event stamp from the future";
  }
  net_->autopilot_at(sw).CorruptSkeptic(p, connectivity, level, last_event);
  MarkFlight(sw, "corrupt-skeptic");
  Note("overwrote %s skeptic at %s port %d: %s (level %d)",
       connectivity ? "connectivity" : "status",
       net_->switch_at(sw).name().c_str(), p, shape, level);
  ++moves_;
}

void Engine::StepCorruptPort() {
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> alive = AliveSwitches();
  if (alive.empty()) {
    return;
  }
  int sw = alive[rng_.UniformInt(0, static_cast<int>(alive.size()) - 1)];
  std::vector<PortNum> ports = AttachedPorts(sw);
  if (ports.empty()) {
    return;
  }
  PortNum p =
      ports[rng_.UniformInt(0, static_cast<int>(ports.size()) - 1)];
  PortState cur = net_->autopilot_at(sw).port_state(p);
  PortState next = cur;
  while (next == cur) {
    next = kAllPortStates[rng_.UniformInt(0, 5)];
  }
  net_->autopilot_at(sw).CorruptPortState(p, next);
  MarkFlight(sw, "corrupt-port");
  Note("overwrote port %d at %s: %s -> %s", p,
       net_->switch_at(sw).name().c_str(), PortStateName(cur),
       PortStateName(next));
  ++moves_;
}

void Engine::StepCorruptEpoch() {
  if (moves_ >= spec_.moves) {
    return;
  }
  // Prefer a switch mid-reconfiguration: a wrong epoch register there
  // derails a live wave instead of lying dormant.
  std::vector<int> alive = AliveSwitches();
  std::vector<int> busy;
  for (int sw : alive) {
    if (net_->autopilot_at(sw).reconfig_in_progress()) {
      busy.push_back(sw);
    }
  }
  const std::vector<int>& pool = busy.empty() ? alive : busy;
  if (pool.empty()) {
    return;
  }
  int sw = pool[rng_.UniformInt(0, static_cast<int>(pool.size()) - 1)];
  Autopilot& ap = net_->autopilot_at(sw);
  std::uint64_t cur = ap.epoch();
  std::uint64_t target;
  const char* how;
  if (spec_.amount == 0) {
    // Runaway: past the believable-jump guard, so every message this switch
    // now considers "stale" is implausibly so.
    target = cur + ReconfigEngine::kMaxEpochJump + 1 +
             static_cast<std::uint64_t>(rng_.UniformInt(0, 1 << 20));
    how = "runaway";
  } else if (cur >= 2 && rng_.Bernoulli(0.5)) {
    target = cur - (cur < spec_.amount ? cur : spec_.amount);
    how = "behind";
  } else {
    target = cur + spec_.amount;
    how = "ahead";
  }
  ap.engine().CorruptEpochRegister(target);
  MarkFlight(sw, "corrupt-epoch");
  Note("overwrote epoch register at %s: %llu -> %llu (%s)",
       net_->switch_at(sw).name().c_str(),
       static_cast<unsigned long long>(cur),
       static_cast<unsigned long long>(target), how);
  ++moves_;
}

void Engine::StepFuzz() {
  if (moves_ >= spec_.moves) {
    return;
  }
  std::vector<int> alive = AliveSwitches();
  if (alive.empty()) {
    return;
  }
  std::vector<int> registered;
  for (int h = 0; h < net_->num_hosts(); ++h) {
    if (net_->driver_at(h).HasAddress()) {
      registered.push_back(h);
    }
  }
  int to_hosts = 0;
  for (int b = 0; b < spec_.burst; ++b) {
    Tick jitter = rng_.UniformInt(kFuzzJitterMin / kMicrosecond,
                                  kFuzzJitterMax / kMicrosecond) *
                  kMicrosecond;
    int sw = alive[rng_.UniformInt(0, static_cast<int>(alive.size()) - 1)];
    bool to_host = !registered.empty() && rng_.Bernoulli(0.5);
    check::MsgType type = check::MsgType::kConnectivity;
    std::vector<std::uint8_t> body;
    PortNum port = kCpPort;
    Packet p;
    if (to_host) {
      // A host-parsed body, fabric-forwarded from the switch's control
      // processor to the host: corruption that escaped the CRC on the last
      // hop.  Address replies carry the real host UID, so the driver's
      // accept path is exercised and not just its parser; SRP bodies land
      // in the chained SRP client.
      int h = registered[rng_.UniformInt(
          0, static_cast<int>(registered.size()) - 1)];
      type = rng_.Bernoulli(0.5) ? check::MsgType::kHostAddress
                                 : check::MsgType::kSrp;
      if (type == check::MsgType::kHostAddress) {
        HostAddressMsg m;
        m.kind = HostAddressMsg::Kind::kReply;
        m.host_uid = net_->host_at(h).uid();
        m.switch_uid = Uid(rng_.NextU64());
        m.short_address =
            static_cast<std::uint16_t>(rng_.UniformInt(0x010, 0x7EF));
        m.epoch = net_->autopilot_at(sw).epoch() +
                  static_cast<std::uint64_t>(rng_.UniformInt(0, 3));
        body = m.Serialize();
      } else {
        body = check::GenerateValidBody(type, rng_);
      }
      p.dest = net_->driver_at(h).short_address();
      p.src = ShortAddress::FromSwitchPort(
          net_->autopilot_at(sw).switch_num(), kCpPort);
      ++to_hosts;
    } else {
      type = static_cast<check::MsgType>(
          rng_.UniformInt(0, check::kNumMsgTypes - 1));
      port = static_cast<PortNum>(
          rng_.UniformInt(kFirstExternalPort, kPortsPerSwitch - 1));
      body = check::GenerateValidBody(type, rng_);
      p.dest = kAddrLocalCp;
      p.src = OneHopAddress(port);
    }
    std::string mutation;
    p.type = check::PacketTypeOf(type);
    p.payload = check::Mutate(std::move(body), rng_, &mutation);
    PacketRef pkt = MakePacket(std::move(p));
    net_->sim().ScheduleAfter(jitter, [net = net_, sw, port, to_host, pkt] {
      if (!net->switch_alive(sw)) {
        return;
      }
      if (to_host) {
        net->switch_at(sw).CpSend(pkt);
      } else {
        DeliverCrcEscaped(*net, sw, port, pkt);
      }
    });
    MarkFlight(sw, "fuzz");
  }
  Note("injected %d mutated bodies: %d into switch CPs, %d to hosts",
       spec_.burst, spec_.burst - to_hosts, to_hosts);
  ++moves_;
}

// --- state-read surface ---

bool Engine::StableNow() const {
  bool first = true;
  std::uint64_t epoch = 0;
  Uid root;
  for (int i = 0; i < net_->num_switches(); ++i) {
    if (!net_->switch_alive(i)) {
      continue;
    }
    Autopilot& ap = net_->autopilot_at(i);
    if (!ap.Quiescent() || ap.reconfig_in_progress()) {
      return false;
    }
    if (first) {
      epoch = ap.epoch();
      root = ap.engine().position_root();
      first = false;
    } else if (ap.epoch() != epoch ||
               ap.engine().position_root() != root) {
      return false;
    }
  }
  return !first;
}

int Engine::FindRootSwitch() const {
  for (int i = 0; i < net_->num_switches(); ++i) {
    if (net_->switch_alive(i) &&
        net_->autopilot_at(i).engine().position_root() ==
            net_->autopilot_at(i).uid()) {
      return i;
    }
  }
  return -1;
}

const char* Engine::PhaseOf(int sw) const {
  if (!net_->autopilot_at(sw).reconfig_in_progress()) {
    return "monitor";
  }
  const obs::FlightRing* ring =
      net_->sim().flight().Find(net_->switch_at(sw).name());
  const obs::FlightEvent* last = ring != nullptr ? ring->Last() : nullptr;
  if (last == nullptr) {
    return "tree";
  }
  switch (last->kind) {
    case obs::FlightEventKind::kReportSend:
    case obs::FlightEventKind::kReportRecv:
      return "fanin";
    case obs::FlightEventKind::kTermination:
    case obs::FlightEventKind::kConfigRecv:
    case obs::FlightEventKind::kConfigCompute:
      return "compute";
    case obs::FlightEventKind::kRouteInstall:
      return "install";
    default:
      return "tree";
  }
}

std::vector<int> Engine::AliveSwitches() const {
  std::vector<int> out;
  for (int i = 0; i < net_->num_switches(); ++i) {
    if (net_->switch_alive(i)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<int> Engine::CandidateCablesAt(int sw) const {
  std::vector<int> out;
  const auto& cables = net_->spec().cables;
  for (int i = 0; i < static_cast<int>(cables.size()); ++i) {
    if ((cables[i].sw_a == sw || cables[i].sw_b == sw) &&
        cuts_.count(i) == 0 && net_->switch_alive(cables[i].sw_a) &&
        net_->switch_alive(cables[i].sw_b)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<PortNum> Engine::AttachedPorts(int sw) const {
  std::vector<PortNum> out;
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    if (net_->switch_at(sw).link_unit(p).attached()) {
      out.push_back(p);
    }
  }
  return out;
}

// --- mechanics ---

void Engine::CutNow(int cable) {
  net_->CutCable(cable);
  cuts_.insert(cable);
  last_cut_at_ = net_->sim().now();
}

void Engine::RestoreNow(int cable) {
  net_->RestoreCable(cable);
  cuts_.erase(cable);
}

void Engine::RestoreAllCuts(const char* why) {
  while (!cuts_.empty()) {
    int cable = *cuts_.begin();
    RestoreNow(cable);
    Note("restored cable %d (%s)", cable, why);
  }
}

void Engine::Note(const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  transcript_.push_back("t=" + FormatTime(net_->sim().now()) + " " +
                        StrategyName(spec_.strategy) + ": " + buf);
}

void Engine::MarkFlight(int sw, const char* detail) {
  obs::Emitter& emitter = net_->switch_at(sw).emitter();
  if (emitter.armed()) {
    emitter.Emit({.time = net_->sim().now(),
                  .epoch = net_->autopilot_at(sw).epoch(),
                  .kind = obs::FlightEventKind::kAdversary,
                  .detail = detail});
  }
}

}  // namespace adversary
}  // namespace autonet
