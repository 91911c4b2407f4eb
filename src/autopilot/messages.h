// Wire formats of Autopilot's control protocols: connectivity probes
// (section 6.5.4), the reconfiguration protocol (section 6.6), host
// short-address service (section 6.3), and the source-routed debugging
// protocol SRP (section 6.7) with its reply bodies.  Each struct's static
// Walk names its fields in wire order, once: Serialize runs it with a
// ByteWriter and Parse with the validating ByteReader (src/common/
// serialize.h), so damaged packets degrade to rejectable messages and no
// accepted message can re-serialize differently from what was received.
#ifndef SRC_AUTOPILOT_MESSAGES_H_
#define SRC_AUTOPILOT_MESSAGES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/common/serialize.h"
#include "src/obs/metrics.h"
#include "src/routing/topology.h"

namespace autonet {

// --- connectivity monitor (PacketType::kConnectivity) ---

struct ConnectivityMsg {
  enum class Kind : std::uint8_t { kProbe = 0, kReply = 1 };
  Kind kind = Kind::kProbe;
  std::uint64_t seq = 0;
  Uid sender_uid;
  std::uint8_t sender_port = 0;
  // Reply only: echo of the probe being answered.
  Uid echo_uid;
  std::uint8_t echo_port = 0;
  std::uint64_t echo_seq = 0;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.kind, Kind::kProbe, Kind::kReply);
    io.U64(m.seq);
    io.Id(m.sender_uid);
    io.U8(m.sender_port);
    io.Id(m.echo_uid);
    io.U8(m.echo_port);
    io.U64(m.echo_seq);
  }
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<ConnectivityMsg> Parse(
      const std::vector<std::uint8_t>& payload);
};

// --- reconfiguration (PacketType::kReconfig) ---

// One switch's contribution to a topology report or configuration
// description: its identity, proposed/assigned switch number, host ports,
// and its usable switch-to-switch links (remote ends named by UID).
struct SwitchRecord {
  Uid uid;
  SwitchNum proposed_num = 1;
  SwitchNum assigned_num = 0;
  std::uint16_t host_ports = 0;
  struct LinkRec {
    std::uint8_t local_port;
    Uid remote_uid;
    std::uint8_t remote_port;

    template <class Io, class M>
    static void Walk(Io& io, M& m) {
      io.U8(m.local_port);
      io.Id(m.remote_uid);
      io.U8(m.remote_port);
    }
  };
  std::vector<LinkRec> links;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Id(m.uid);
    io.U16(m.proposed_num);
    io.U16(m.assigned_num);
    io.U16(m.host_ports);
    io.Size8(m.links, kPortsPerSwitch);
    for (auto& link : m.links) {
      LinkRec::Walk(io, link);
    }
  }
  // A record list: the payload of reports and configurations, and the SRP
  // GetTopology reply body.
  template <class Io, class V>
  static void WalkList(Io& io, V& records) {
    io.Size16(records, 512);
    for (auto& rec : records) {
      Walk(io, rec);
    }
  }
};

struct ReconfigMsg {
  enum class Kind : std::uint8_t {
    kPosition = 0,   // tree-position packet
    kPosAck = 1,     // ack, carrying the "this is now my parent link" bit
    kReport = 2,     // "I am stable" + stable-subtree topology
    kReportAck = 3,
    kConfig = 4,     // step 4: full topology + switch-number assignments
    kConfigAck = 5,
    // Local reconfiguration (section 7 future work): a link delta routed
    // up the standing tree, and the root's incremental redistribution.
    kDelta = 6,
    kMinorConfig = 7,
  };
  Kind kind = Kind::kPosition;
  std::uint64_t epoch = 0;
  Uid sender_uid;

  // kPosition: the sender's current tree position.
  Uid root_uid;
  std::uint16_t level = 0;
  std::uint32_t pos_seq = 0;  // version, for ack matching

  // kPosAck.
  std::uint32_t ack_seq = 0;
  bool is_parent = false;

  // kReport / kReportAck / kConfig / kConfigAck / kMinorConfig.
  std::uint32_t payload_seq = 0;
  std::vector<SwitchRecord> records;

  // kDelta: one link added to or removed from the configuration.
  bool delta_add = false;
  Uid delta_a_uid;
  std::uint8_t delta_a_port = 0;
  Uid delta_b_uid;
  std::uint8_t delta_b_port = 0;

  // kMinorConfig: monotonically increasing within an epoch.
  std::uint32_t config_version = 0;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.kind, Kind::kPosition, Kind::kMinorConfig);
    io.U64(m.epoch);
    io.Id(m.sender_uid);
    switch (m.kind) {
      case Kind::kPosition:
        io.Id(m.root_uid);
        io.U16(m.level);
        io.U32(m.pos_seq);
        break;
      case Kind::kPosAck:
        io.U32(m.ack_seq);
        io.Bool(m.is_parent);
        break;
      case Kind::kReport:
      case Kind::kConfig:
        io.U32(m.payload_seq);
        SwitchRecord::WalkList(io, m.records);
        break;
      case Kind::kMinorConfig:
        io.U32(m.payload_seq);
        io.U32(m.config_version);
        SwitchRecord::WalkList(io, m.records);
        break;
      case Kind::kDelta:
        io.U32(m.payload_seq);
        io.Bool(m.delta_add);
        io.Id(m.delta_a_uid);
        io.U8(m.delta_a_port);
        io.Id(m.delta_b_uid);
        io.U8(m.delta_b_port);
        break;
      case Kind::kReportAck:
      case Kind::kConfigAck:
        io.U32(m.payload_seq);
        break;
    }
  }
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<ReconfigMsg> Parse(
      const std::vector<std::uint8_t>& payload);

  const char* KindName() const;
};

// Builds a NetTopology from config/report records: links are resolved from
// UIDs to indices and one-sided links are dropped.
NetTopology RecordsToTopology(const std::vector<SwitchRecord>& records);
// The inverse, for assembling reports.
std::vector<SwitchRecord> TopologyToRecords(const NetTopology& topology);

// --- host short-address service (PacketType::kHostAddress) ---

struct HostAddressMsg {
  enum class Kind : std::uint8_t { kRequest = 0, kReply = 1 };
  Kind kind = Kind::kRequest;
  Uid host_uid;        // requesting host
  Uid switch_uid;      // reply: the answering switch
  std::uint16_t short_address = 0;  // reply: the host's assigned address
  std::uint64_t epoch = 0;          // reply: configuration epoch

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.kind, Kind::kRequest, Kind::kReply);
    io.Id(m.host_uid);
    io.Id(m.switch_uid);
    io.U16(m.short_address);
    io.U64(m.epoch);
  }
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<HostAddressMsg> Parse(
      const std::vector<std::uint8_t>& payload);
};

// --- SRP, the source-routed debugging/monitoring protocol (section 6.7) ---
//
// The route is a sequence of outbound port numbers; each control processor
// along the path forwards the packet one hop and appends the arrival port
// to the reverse route, so the final switch can send the reply back along
// the recorded reverse path.  Delivery depends only on the constant one-hop
// part of forwarding tables, so SRP works during reconfiguration.

struct SrpMsg {
  enum class Op : std::uint8_t {
    kEcho = 0,
    kGetState = 1,     // epoch, switch number, port states
    kGetTopology = 2,  // the switch's current view of the network
    kGetLog = 3,       // tail of the reconfiguration event log
    kGetStats = 4,     // registry metrics under this switch's name prefix
    kReply = 100,
  };
  Op op = Op::kEcho;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> route;          // outbound ports, source-chosen
  std::uint8_t position = 0;                // next hop index
  std::vector<std::uint8_t> reverse_route;  // arrival ports, accumulated
  std::vector<std::uint8_t> body;           // op argument / reply data

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.op, Op::kEcho, Op::kReply);
    io.Check(m.op <= Op::kGetStats || m.op == Op::kReply);
    io.U64(m.request_id);
    io.Size8(m.route);
    io.Bytes(m.route);
    io.U8(m.position);
    io.Size8(m.reverse_route);
    io.Bytes(m.reverse_route);
    io.Size16(m.body, 4096);
    io.Bytes(m.body);
  }
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<SrpMsg> Parse(const std::vector<std::uint8_t>& payload);
};

// SRP reply bodies.  Echo returns the request body and GetLog the log text
// as raw bytes; the others are the structs below, each read and written
// with Encode/Decode (src/common/serialize.h).

// kGetState: the switch's epoch, number, identity and port states.
struct SrpState {
  std::uint64_t epoch = 0;
  SwitchNum switch_num = 0;
  Uid uid;
  bool reconfig_in_progress = false;
  std::array<std::uint8_t, kPortsPerSwitch - kFirstExternalPort>
      port_states{};  // PortState per port 1..12

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.U64(m.epoch);
    io.U16(m.switch_num);
    io.Id(m.uid);
    io.Bool(m.reconfig_in_progress);
    io.Bytes(m.port_states);
  }
};

// kGetTopology: the switch's current view of the network.
struct SrpTopology {
  std::vector<SwitchRecord> records;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    SwitchRecord::WalkList(io, m.records);
  }
};

// kGetStats: one instrument of the serving switch's registry slice.  Names
// are switch-local: the server strips its own `switch.<name>.` prefix.
// Exactly the fields for the kind are valid.
struct SrpStat {
  obs::MetricKind kind = obs::MetricKind::kCounter;
  std::string name;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  std::uint64_t hist_count = 0;
  double hist_min = 0.0;
  double hist_max = 0.0;
  double hist_mean = 0.0;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.kind, obs::MetricKind::kCounter, obs::MetricKind::kHistogram);
    io.Size16(m.name);
    io.Bytes(m.name);
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        io.U64(m.counter);
        break;
      case obs::MetricKind::kGauge:
        io.F64(m.gauge);
        break;
      case obs::MetricKind::kHistogram:
        io.U64(m.hist_count);
        io.F64(m.hist_min);
        io.F64(m.hist_max);
        io.F64(m.hist_mean);
        break;
    }
  }
};

// The kGetStats reply.  A body of at most 4096 bytes holds at most 372
// entries (each takes at least 11), so a larger count is damage.
struct SrpStats {
  std::vector<SrpStat> entries;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Size16(m.entries, 372);
    for (auto& e : m.entries) {
      SrpStat::Walk(io, e);
    }
  }
};

}  // namespace autonet

#endif  // SRC_AUTOPILOT_MESSAGES_H_
