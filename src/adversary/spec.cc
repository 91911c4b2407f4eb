#include "src/adversary/spec.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "src/common/tokens.h"

namespace autonet {
namespace adversary {

namespace {

constexpr long long kNoLimit = std::numeric_limits<long long>::max();

// The one name table, in Strategy order: StrategyName, ParseSpec and its
// error text all read it.
constexpr const char* kStrategyNames[] = {
    "none",
    "root-chase", "phase-snipe", "storm", "flap-resonance",
    "corrupt-table", "corrupt-skeptic", "corrupt-port", "corrupt-epoch",
    "fuzz",
};
constexpr int kNumStrategies = static_cast<int>(std::size(kStrategyNames));
static_assert(kNumStrategies == static_cast<int>(Strategy::kFuzz) + 1);

bool ValidPhase(const std::string& phase) {
  return phase == "monitor" || phase == "tree" || phase == "fanin" ||
         phase == "compute" || phase == "install";
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  return kStrategyNames[static_cast<int>(strategy)];
}

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
    case Strategy::kFuzz:
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
    std::string names = kStrategyNames[1];
    for (int i = 2; i < kNumStrategies; ++i) {
      names += std::string("|") + kStrategyNames[i];
    }
    return fail("expected an adversary strategy (" + names + ")");
  }
  Spec spec;
  const std::string& strategy = tokens[start];
  int index = static_cast<int>(
      std::find(kStrategyNames, kStrategyNames + kNumStrategies, strategy) -
      kStrategyNames);
  if (index == kNumStrategies) {
    return fail("unknown adversary strategy '" + strategy + "'");
  }
  spec.strategy = static_cast<Strategy>(index);
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
