#include "src/adversary/spec.h"

#include <limits>
#include <sstream>

#include "src/common/tokens.h"

namespace autonet {
namespace adversary {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNone:
      return "none";
    case Strategy::kRootChase:
      return "root-chase";
    case Strategy::kPhaseSnipe:
      return "phase-snipe";
    case Strategy::kStorm:
      return "storm";
    case Strategy::kFlapResonance:
      return "flap-resonance";
    case Strategy::kCorruptTable:
      return "corrupt-table";
    case Strategy::kCorruptSkeptic:
      return "corrupt-skeptic";
    case Strategy::kCorruptPort:
      return "corrupt-port";
    case Strategy::kCorruptEpoch:
      return "corrupt-epoch";
  }
  return "none";
}

namespace {

constexpr long long kNoLimit = std::numeric_limits<long long>::max();

bool ValidPhase(const std::string& phase) {
  return phase == "monitor" || phase == "tree" || phase == "fanin" ||
         phase == "compute" || phase == "install";
}

}  // namespace

Tick Spec::effective_period() const {
  if (period > 0) {
    return period;
  }
  switch (strategy) {
    case Strategy::kPhaseSnipe:
      return 2 * kMillisecond;   // phases last single-digit milliseconds
    case Strategy::kFlapResonance:
      return 10 * kMillisecond;  // must catch the re-admit edge promptly
    default:
      return 100 * kMillisecond;
  }
}

std::string Spec::ToText() const {
  std::ostringstream out;
  out << StrategyName(strategy);
  if (strategy == Strategy::kNone) {
    return out.str();
  }
  out << " moves " << moves << " duration " << FormatTime(duration);
  if (period > 0) {
    out << " period " << FormatTime(period);
  }
  switch (strategy) {
    case Strategy::kPhaseSnipe:
      out << " phase " << phase;
      break;
    case Strategy::kStorm:
      out << " burst " << burst;
      break;
    case Strategy::kCorruptEpoch:
      out << " amount " << amount;
      break;
    default:
      break;
  }
  return out.str();
}

bool ParseSpec(const std::vector<std::string>& tokens, std::size_t start,
               Spec* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (start >= tokens.size()) {
    return fail(
        "expected an adversary strategy (root-chase|phase-snipe|storm|"
        "flap-resonance|corrupt-table|corrupt-skeptic|corrupt-port|"
        "corrupt-epoch)");
  }
  Spec spec;
  const std::string& strategy = tokens[start];
  if (strategy == "none") {
    spec.strategy = Strategy::kNone;
  } else if (strategy == "root-chase") {
    spec.strategy = Strategy::kRootChase;
  } else if (strategy == "phase-snipe") {
    spec.strategy = Strategy::kPhaseSnipe;
  } else if (strategy == "storm") {
    spec.strategy = Strategy::kStorm;
  } else if (strategy == "flap-resonance") {
    spec.strategy = Strategy::kFlapResonance;
  } else if (strategy == "corrupt-table") {
    spec.strategy = Strategy::kCorruptTable;
  } else if (strategy == "corrupt-skeptic") {
    spec.strategy = Strategy::kCorruptSkeptic;
  } else if (strategy == "corrupt-port") {
    spec.strategy = Strategy::kCorruptPort;
  } else if (strategy == "corrupt-epoch") {
    spec.strategy = Strategy::kCorruptEpoch;
  } else {
    return fail("unknown adversary strategy '" + strategy + "'");
  }
  for (std::size_t i = start + 1; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      return fail("adversary key '" + tokens[i] + "' is missing a value");
    }
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    long long count = 0;
    Tick t = 0;
    if (key == "moves") {
      if (!ParseNumber(value, 1LL, 1000LL, &count)) {
        return fail("bad moves '" + value + "' (1..1000)");
      }
      spec.moves = static_cast<int>(count);
    } else if (key == "duration") {
      if (!ParseTime(value, &t) || t <= 0) {
        return fail("bad duration '" + value + "'");
      }
      spec.duration = t;
    } else if (key == "period") {
      if (!ParseTime(value, &t) || t <= 0) {
        return fail("bad period '" + value + "'");
      }
      spec.period = t;
    } else if (key == "phase") {
      if (!ValidPhase(value)) {
        return fail("bad phase '" + value +
                    "' (monitor|tree|fanin|compute|install)");
      }
      spec.phase = value;
    } else if (key == "burst") {
      if (!ParseNumber(value, 1LL, 64LL, &count)) {
        return fail("bad burst '" + value + "' (1..64)");
      }
      spec.burst = static_cast<int>(count);
    } else if (key == "amount") {
      if (!ParseNumber(value, 0LL, kNoLimit, &count)) {
        return fail("bad amount '" + value + "'");
      }
      spec.amount = static_cast<std::uint64_t>(count);
    } else {
      return fail("unknown adversary key '" + key + "'");
    }
  }
  if (error != nullptr) {
    error->clear();
  }
  *out = spec;
  return true;
}

bool ParseSpecText(const std::string& text, Spec* out, std::string* error) {
  return ParseSpec(SplitTokens(text), 0, out, error);
}

}  // namespace adversary
}  // namespace autonet
