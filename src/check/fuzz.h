// The deterministic structure-aware message fuzzer (protocol correctness
// harness, part 1).  It exercises the control-protocol parsers at the
// ByteWriter/ByteReader boundary with two kinds of input:
//
//   identity    a valid serialized body, unmodified — must be accepted and
//               re-serialize to exactly the received bytes
//   mutation    a valid body put through one mutation from a fixed
//               dictionary (bit flips, truncation, trailing junk, field
//               swaps, epoch/UID skew, ...) — may be rejected, but if a
//               parser accepts it, re-serialization must reproduce the
//               received bytes ("no parser accepts a message that
//               round-trips differently": an accepted-but-altered message
//               means corruption survived the parse undetected)
//
// The same generator and mutator feed the adversary's `fuzz` strategy
// (src/adversary/adversary.h), which delivers mutated bodies into the
// control processors and host parsers of a live network (corruption that
// escaped the CRC) and is judged by the chaos oracle battery.  This file is
// compiled into autonet_core so the adversary can draw bodies from it.
//
// Everything is a pure function of a seed: any finding reproduces with
// `protocheck --fuzz N --fuzz-seed S` or, for live injection, `chaosrun
// --scenario S --topo T --seed N`.
#ifndef SRC_CHECK_FUZZ_H_
#define SRC_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/packet.h"
#include "src/sim/random.h"

namespace autonet {
namespace check {

// The four control-protocol wire formats under test.
enum class MsgType {
  kConnectivity = 0,
  kReconfig = 1,
  kHostAddress = 2,
  kSrp = 3,
};
inline constexpr int kNumMsgTypes = 4;

const char* MsgTypeName(MsgType type);
// The packet type that carries a body of `type` on the wire.
PacketType PacketTypeOf(MsgType type);
bool MsgTypeFromName(const std::string& name, MsgType* out);

std::string HexEncode(const std::vector<std::uint8_t>& bytes);
bool HexDecode(const std::string& hex, std::vector<std::uint8_t>* out);

// A randomly populated valid message of the given type, serialized.  Field
// values are drawn from `rng`; the result always parses and round-trips.
std::vector<std::uint8_t> GenerateValidBody(MsgType type, Rng& rng);

// Applies one mutation from the dictionary to `bytes` (chosen by `rng`) and
// names it in *mutation.  The identity mutation returns the input unchanged.
std::vector<std::uint8_t> Mutate(std::vector<std::uint8_t> bytes, Rng& rng,
                                 std::string* mutation);

// The round-trip oracle.  Empty string when the invariant holds: the parser
// either rejects `bytes`, or accepts them and Serialize(*parsed) == bytes.
// `must_accept` additionally fails rejection (used for identity cases and
// corpus accept entries — a parser that rejects its own output is broken in
// the other direction).
std::string CheckRoundTrip(MsgType type, const std::vector<std::uint8_t>& bytes,
                           bool must_accept = false);

struct FuzzFinding {
  std::string type;      // message type name
  std::string mutation;  // dictionary entry
  std::string detail;    // one-line diagnosis
  std::string hex;       // the offending body
  std::string reproducer;
};

struct FuzzReport {
  int cases = 0;
  int accepted = 0;
  int rejected = 0;
  std::vector<FuzzFinding> findings;
  bool ok() const { return findings.empty(); }
};

// Runs `cases_per_type` generate+mutate+check rounds per message type.
// Deterministic in `seed`.
FuzzReport FuzzRoundTrip(std::uint64_t seed, int cases_per_type);

// --- committed corpus ---
//
// Line format: `<type>:<accept|reject>:<hex>` (# comments and blank lines
// ignored).  Accept entries must parse and round-trip byte-identically;
// reject entries must not parse.

struct CorpusEntry {
  MsgType type = MsgType::kConnectivity;
  bool accept = false;
  std::vector<std::uint8_t> bytes;
  int line = 0;  // source line, for diagnostics
};

bool ParseCorpus(const std::string& text, std::vector<CorpusEntry>* out,
                 std::string* error);
bool LoadCorpus(const std::string& path, std::vector<CorpusEntry>* out,
                std::string* error);
FuzzReport CheckCorpus(const std::vector<CorpusEntry>& entries);

}  // namespace check
}  // namespace autonet

#endif  // SRC_CHECK_FUZZ_H_
