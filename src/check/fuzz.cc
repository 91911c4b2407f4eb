#include "src/check/fuzz.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/autopilot/messages.h"

namespace autonet {
namespace check {

namespace {

constexpr const char* kTypeNames[kNumMsgTypes] = {"connectivity", "reconfig",
                                                  "hostaddress", "srp"};

std::uint8_t RandByte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.UniformInt(0, 255));
}

Uid RandUid(Rng& rng) { return Uid(rng.NextU64()); }

PortNum RandExternalPort(Rng& rng) {
  return static_cast<PortNum>(
      rng.UniformInt(kFirstExternalPort, kPortsPerSwitch - 1));
}

std::vector<SwitchRecord> RandRecords(Rng& rng) {
  std::vector<SwitchRecord> records;
  int n = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n; ++i) {
    SwitchRecord rec;
    rec.uid = RandUid(rng);
    rec.proposed_num = static_cast<SwitchNum>(rng.UniformInt(1, 200));
    rec.assigned_num = static_cast<SwitchNum>(rng.UniformInt(0, 200));
    rec.host_ports = static_cast<std::uint16_t>(rng.NextU64());
    int nlinks = static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < nlinks; ++j) {
      rec.links.push_back(SwitchRecord::LinkRec{
          static_cast<std::uint8_t>(RandExternalPort(rng)), RandUid(rng),
          static_cast<std::uint8_t>(RandExternalPort(rng))});
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<std::uint8_t> GenConnectivity(Rng& rng) {
  ConnectivityMsg m;
  m.kind = rng.Bernoulli(0.5) ? ConnectivityMsg::Kind::kReply
                              : ConnectivityMsg::Kind::kProbe;
  m.seq = rng.NextU64();
  m.sender_uid = RandUid(rng);
  m.sender_port = static_cast<std::uint8_t>(RandExternalPort(rng));
  if (m.kind == ConnectivityMsg::Kind::kReply) {
    m.echo_uid = RandUid(rng);
    m.echo_port = static_cast<std::uint8_t>(RandExternalPort(rng));
    m.echo_seq = rng.NextU64();
  }
  return m.Serialize();
}

std::vector<std::uint8_t> GenReconfig(Rng& rng) {
  ReconfigMsg m;
  m.kind = static_cast<ReconfigMsg::Kind>(rng.UniformInt(0, 7));
  m.epoch = rng.NextU64() >> static_cast<int>(rng.UniformInt(0, 56));
  m.sender_uid = RandUid(rng);
  switch (m.kind) {
    case ReconfigMsg::Kind::kPosition:
      m.root_uid = RandUid(rng);
      m.level = static_cast<std::uint16_t>(rng.NextU64());
      m.pos_seq = static_cast<std::uint32_t>(rng.NextU64());
      break;
    case ReconfigMsg::Kind::kPosAck:
      m.ack_seq = static_cast<std::uint32_t>(rng.NextU64());
      m.is_parent = rng.Bernoulli(0.5);
      break;
    case ReconfigMsg::Kind::kReport:
    case ReconfigMsg::Kind::kConfig:
      m.payload_seq = static_cast<std::uint32_t>(rng.NextU64());
      m.records = RandRecords(rng);
      break;
    case ReconfigMsg::Kind::kMinorConfig:
      m.payload_seq = static_cast<std::uint32_t>(rng.NextU64());
      m.config_version = static_cast<std::uint32_t>(rng.NextU64());
      m.records = RandRecords(rng);
      break;
    case ReconfigMsg::Kind::kDelta:
      m.payload_seq = static_cast<std::uint32_t>(rng.NextU64());
      m.delta_add = rng.Bernoulli(0.5);
      m.delta_a_uid = RandUid(rng);
      m.delta_a_port = static_cast<std::uint8_t>(RandExternalPort(rng));
      m.delta_b_uid = RandUid(rng);
      m.delta_b_port = static_cast<std::uint8_t>(RandExternalPort(rng));
      break;
    case ReconfigMsg::Kind::kReportAck:
    case ReconfigMsg::Kind::kConfigAck:
      m.payload_seq = static_cast<std::uint32_t>(rng.NextU64());
      break;
  }
  return m.Serialize();
}

std::vector<std::uint8_t> GenHostAddress(Rng& rng) {
  HostAddressMsg m;
  m.kind = rng.Bernoulli(0.5) ? HostAddressMsg::Kind::kReply
                              : HostAddressMsg::Kind::kRequest;
  m.host_uid = RandUid(rng);
  if (m.kind == HostAddressMsg::Kind::kReply) {
    m.switch_uid = RandUid(rng);
    m.short_address = static_cast<std::uint16_t>(rng.NextU64());
    m.epoch = rng.NextU64();
  }
  return m.Serialize();
}

std::vector<std::uint8_t> GenSrp(Rng& rng) {
  static constexpr SrpMsg::Op kOps[] = {
      SrpMsg::Op::kEcho,   SrpMsg::Op::kGetState, SrpMsg::Op::kGetTopology,
      SrpMsg::Op::kGetLog, SrpMsg::Op::kGetStats, SrpMsg::Op::kReply,
  };
  SrpMsg m;
  m.op = kOps[rng.UniformInt(0, 5)];
  m.request_id = rng.NextU64();
  int nroute = static_cast<int>(rng.UniformInt(0, 6));
  for (int i = 0; i < nroute; ++i) {
    m.route.push_back(static_cast<std::uint8_t>(RandExternalPort(rng)));
  }
  m.position = static_cast<std::uint8_t>(rng.UniformInt(0, nroute));
  int nreverse = static_cast<int>(rng.UniformInt(0, 6));
  for (int i = 0; i < nreverse; ++i) {
    m.reverse_route.push_back(static_cast<std::uint8_t>(RandExternalPort(rng)));
  }
  int nbody = static_cast<int>(rng.UniformInt(0, 32));
  for (int i = 0; i < nbody; ++i) {
    m.body.push_back(RandByte(rng));
  }
  return m.Serialize();
}

// Reserialization for the round-trip comparison.
struct ParseOutcome {
  bool accepted = false;
  std::vector<std::uint8_t> reserialized;
};

ParseOutcome ParseAndReserialize(MsgType type,
                                 const std::vector<std::uint8_t>& bytes) {
  ParseOutcome out;
  switch (type) {
    case MsgType::kConnectivity: {
      auto m = ConnectivityMsg::Parse(bytes);
      if (m) {
        out.accepted = true;
        out.reserialized = m->Serialize();
      }
      break;
    }
    case MsgType::kReconfig: {
      auto m = ReconfigMsg::Parse(bytes);
      if (m) {
        out.accepted = true;
        out.reserialized = m->Serialize();
      }
      break;
    }
    case MsgType::kHostAddress: {
      auto m = HostAddressMsg::Parse(bytes);
      if (m) {
        out.accepted = true;
        out.reserialized = m->Serialize();
      }
      break;
    }
    case MsgType::kSrp: {
      auto m = SrpMsg::Parse(bytes);
      if (m) {
        out.accepted = true;
        out.reserialized = m->Serialize();
      }
      break;
    }
  }
  return out;
}

// --- mutation dictionary ---

using MutationFn = void (*)(std::vector<std::uint8_t>&, Rng&);

void MutIdentity(std::vector<std::uint8_t>&, Rng&) {}

void MutBitFlip(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.empty()) return;
  std::int64_t bit = rng.UniformInt(0, static_cast<std::int64_t>(b.size()) * 8 - 1);
  b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void MutByteSet(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.empty()) return;
  b[rng.UniformInt(0, b.size() - 1)] = RandByte(rng);
}

void MutTruncate(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.empty()) return;
  std::int64_t k = rng.UniformInt(1, std::min<std::int64_t>(8, b.size()));
  b.resize(b.size() - k);
}

void MutExtend(std::vector<std::uint8_t>& b, Rng& rng) {
  std::int64_t k = rng.UniformInt(1, 4);
  for (std::int64_t i = 0; i < k; ++i) {
    // Bias toward trailing zeros: the historically dangerous case a lax
    // parser accepts without noticing.
    b.push_back(rng.Bernoulli(0.5) ? 0 : RandByte(rng));
  }
}

void MutFieldSwap(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.size() < 8) return;
  std::int64_t a = rng.UniformInt(0, b.size() - 8);
  std::int64_t c = rng.UniformInt(0, b.size() - 8);
  if (a == c) return;
  for (int i = 0; i < 4; ++i) {
    std::swap(b[a + i], b[c + i]);
  }
}

void MutEpochSkew(std::vector<std::uint8_t>& b, Rng& rng) {
  // Overwrite an 8-byte window with 0xFF: a huge value landing in an epoch
  // (or any u64) field.  ReconfigMsg carries its epoch at offset 1.
  if (b.size() < 9) return;
  std::int64_t o = rng.Bernoulli(0.5) ? 1 : rng.UniformInt(0, b.size() - 8);
  if (o + 8 > static_cast<std::int64_t>(b.size())) o = 1;
  for (int i = 0; i < 8; ++i) {
    b[o + i] = 0xFF;
  }
}

void MutUidSkew(std::vector<std::uint8_t>& b, Rng& rng) {
  // Set the top byte of an 8-byte little-endian window: bits above a wire
  // UID's 48-bit mask, which only corruption can set.
  if (b.size() < 8) return;
  std::int64_t o = rng.UniformInt(0, b.size() - 8);
  b[o + 7] |= 0x80;
}

void MutZeroFill(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.empty()) return;
  std::int64_t o = rng.UniformInt(0, b.size() - 1);
  std::int64_t k = std::min<std::int64_t>(rng.UniformInt(1, 8),
                                          static_cast<std::int64_t>(b.size()) - o);
  std::fill(b.begin() + o, b.begin() + o + k, 0);
}

void MutSwapAdjacent(std::vector<std::uint8_t>& b, Rng& rng) {
  if (b.size() < 2) return;
  std::int64_t i = rng.UniformInt(0, b.size() - 2);
  std::swap(b[i], b[i + 1]);
}

struct MutationEntry {
  const char* name;
  MutationFn fn;
};

constexpr MutationEntry kMutations[] = {
    {"identity", MutIdentity},       {"bitflip", MutBitFlip},
    {"byteset", MutByteSet},         {"truncate", MutTruncate},
    {"extend", MutExtend},           {"fieldswap", MutFieldSwap},
    {"epochskew", MutEpochSkew},     {"uidskew", MutUidSkew},
    {"zerofill", MutZeroFill},       {"swapadjacent", MutSwapAdjacent},
};
constexpr int kNumMutations = sizeof(kMutations) / sizeof(kMutations[0]);

}  // namespace

const char* MsgTypeName(MsgType type) {
  return kTypeNames[static_cast<int>(type)];
}

PacketType PacketTypeOf(MsgType type) {
  static constexpr PacketType kPacketTypes[kNumMsgTypes] = {
      PacketType::kConnectivity, PacketType::kReconfig,
      PacketType::kHostAddress, PacketType::kSrp};
  return kPacketTypes[static_cast<int>(type)];
}

bool MsgTypeFromName(const std::string& name, MsgType* out) {
  for (int i = 0; i < kNumMsgTypes; ++i) {
    if (name == kTypeNames[i]) {
      *out = static_cast<MsgType>(i);
      return true;
    }
  }
  return false;
}

std::string HexEncode(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

bool HexDecode(const std::string& hex, std::vector<std::uint8_t>* out) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    return false;
  }
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::vector<std::uint8_t> GenerateValidBody(MsgType type, Rng& rng) {
  switch (type) {
    case MsgType::kConnectivity:
      return GenConnectivity(rng);
    case MsgType::kReconfig:
      return GenReconfig(rng);
    case MsgType::kHostAddress:
      return GenHostAddress(rng);
    case MsgType::kSrp:
      return GenSrp(rng);
  }
  return {};
}

std::vector<std::uint8_t> Mutate(std::vector<std::uint8_t> bytes, Rng& rng,
                                 std::string* mutation) {
  const MutationEntry& m = kMutations[rng.UniformInt(0, kNumMutations - 1)];
  if (mutation != nullptr) {
    *mutation = m.name;
  }
  m.fn(bytes, rng);
  return bytes;
}

std::string CheckRoundTrip(MsgType type, const std::vector<std::uint8_t>& bytes,
                           bool must_accept) {
  ParseOutcome out = ParseAndReserialize(type, bytes);
  if (!out.accepted) {
    if (must_accept) {
      return std::string(MsgTypeName(type)) +
             ": parser rejected a valid serialization: " + HexEncode(bytes);
    }
    return "";
  }
  if (out.reserialized != bytes) {
    return std::string(MsgTypeName(type)) +
           ": accepted message round-trips differently\n  received:     " +
           HexEncode(bytes) + "\n  reserialized: " +
           HexEncode(out.reserialized);
  }
  return "";
}

FuzzReport FuzzRoundTrip(std::uint64_t seed, int cases_per_type) {
  FuzzReport report;
  std::string reproducer = "protocheck --fuzz " +
                           std::to_string(cases_per_type) + " --fuzz-seed " +
                           std::to_string(seed);
  for (int t = 0; t < kNumMsgTypes; ++t) {
    MsgType type = static_cast<MsgType>(t);
    Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (t + 1)));
    for (int k = 0; k < cases_per_type; ++k) {
      std::vector<std::uint8_t> valid = GenerateValidBody(type, rng);

      // Identity: the parser must take back what the serializer produced.
      std::string identity = CheckRoundTrip(type, valid, /*must_accept=*/true);
      if (!identity.empty()) {
        report.findings.push_back({MsgTypeName(type), "identity",
                                   "case " + std::to_string(k) + ": " +
                                       identity,
                                   HexEncode(valid), reproducer});
      }

      std::string mutation;
      std::vector<std::uint8_t> mutated = Mutate(valid, rng, &mutation);
      ++report.cases;
      ParseOutcome out = ParseAndReserialize(type, mutated);
      if (out.accepted) {
        ++report.accepted;
        if (out.reserialized != mutated) {
          report.findings.push_back(
              {MsgTypeName(type), mutation,
               "case " + std::to_string(k) +
                   ": accepted message round-trips differently (reserialized " +
                   HexEncode(out.reserialized) + ")",
               HexEncode(mutated), reproducer});
        }
      } else {
        ++report.rejected;
      }
    }
  }
  return report;
}

// --- corpus ---

bool ParseCorpus(const std::string& text, std::vector<CorpusEntry>* out,
                 std::string* error) {
  out->clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    // Trim whitespace and skip comments.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    std::size_t end = line.find_last_not_of(" \t\r");
    std::string body = line.substr(start, end - start + 1);

    std::size_t c1 = body.find(':');
    std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                             : body.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      return fail("expected <type>:<accept|reject>:<hex>");
    }
    CorpusEntry entry;
    entry.line = lineno;
    if (!MsgTypeFromName(body.substr(0, c1), &entry.type)) {
      return fail("unknown message type '" + body.substr(0, c1) + "'");
    }
    std::string verdict = body.substr(c1 + 1, c2 - c1 - 1);
    if (verdict == "accept") {
      entry.accept = true;
    } else if (verdict == "reject") {
      entry.accept = false;
    } else {
      return fail("expected accept or reject, got '" + verdict + "'");
    }
    if (!HexDecode(body.substr(c2 + 1), &entry.bytes)) {
      return fail("bad hex");
    }
    out->push_back(std::move(entry));
  }
  return true;
}

bool LoadCorpus(const std::string& path, std::vector<CorpusEntry>* out,
                std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream text;
  text << f.rdbuf();
  return ParseCorpus(text.str(), out, error);
}

FuzzReport CheckCorpus(const std::vector<CorpusEntry>& entries) {
  FuzzReport report;
  for (const CorpusEntry& entry : entries) {
    ++report.cases;
    ParseOutcome out = ParseAndReserialize(entry.type, entry.bytes);
    std::string where = "corpus line " + std::to_string(entry.line);
    if (out.accepted) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
    if (entry.accept && !out.accepted) {
      report.findings.push_back({MsgTypeName(entry.type), "corpus",
                                 where + ": expected accept, parser rejected",
                                 HexEncode(entry.bytes), "protocheck --corpus"});
    } else if (!entry.accept && out.accepted) {
      report.findings.push_back({MsgTypeName(entry.type), "corpus",
                                 where + ": expected reject, parser accepted",
                                 HexEncode(entry.bytes), "protocheck --corpus"});
    } else if (entry.accept && out.reserialized != entry.bytes) {
      report.findings.push_back(
          {MsgTypeName(entry.type), "corpus",
           where + ": accepted message round-trips differently (reserialized " +
               HexEncode(out.reserialized) + ")",
           HexEncode(entry.bytes), "protocheck --corpus"});
    }
  }
  return report;
}

}  // namespace check
}  // namespace autonet
