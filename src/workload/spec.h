// Workload specification for the application workload engine: which
// structured traffic pattern to run (RPC fleets, ring-allreduce collectives,
// periodic deadline streams) and its knobs.  A Spec has a text form —
// "rpc bytes 256 response 32 window 2 timeout 250ms" — that round-trips
// through ParseSpec, so a chaos scenario can carry its workload inline and a
// reproducer line fully reproduces the SLO numbers.
#ifndef SRC_WORKLOAD_SPEC_H_
#define SRC_WORKLOAD_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace autonet {
namespace workload {

enum class Kind : std::uint8_t {
  kNone,       // workload disabled
  kRpc,        // closed-loop request/response fleet, per-flow window
  kAllreduce,  // ring collective: barrier per step, one slow flow stalls all
  kStreams,    // open-loop periodic frames with per-frame deadlines
};

const char* KindName(Kind kind);

struct Spec {
  Kind kind = Kind::kNone;
  std::size_t data_bytes = 256;     // request / frame / chunk payload
  std::size_t response_bytes = 32;  // RPC response payload
  int window = 2;                   // RPC per-flow outstanding ops
  Tick period = 5 * kMillisecond;   // stream frame period
  Tick deadline = 25 * kMillisecond;  // stream per-frame deadline
  Tick timeout = 250 * kMillisecond;  // RPC / collective retransmit timeout

  bool enabled() const { return kind != Kind::kNone; }

  // The text form, omitting knobs the kind does not use.  Round-trips
  // through ParseSpecText.
  std::string ToText() const;
};

// Parses `tokens[start..]` as `<kind> [key value]...` where keys are
// bytes/response/window/period/deadline/timeout and times take unit
// suffixes (ns/us/ms/s).  Returns false with *error set on a bad token.
bool ParseSpec(const std::vector<std::string>& tokens, std::size_t start,
               Spec* out, std::string* error);

// Convenience: splits `text` with SplitTokens and calls ParseSpec.
bool ParseSpecText(const std::string& text, Spec* out, std::string* error);

}  // namespace workload
}  // namespace autonet

#endif  // SRC_WORKLOAD_SPEC_H_
