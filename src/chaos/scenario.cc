#include "src/chaos/scenario.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/common/tokens.h"

namespace autonet {
namespace chaos {

Tick Scenario::ScriptEnd() const {
  Tick end = 0;
  for (const Action& a : actions) {
    end = std::max(end, a.at);
    if (a.kind == Action::Kind::kFlapCable ||
        a.kind == Action::Kind::kBurstCables ||
        a.kind == Action::Kind::kBurstSwitches) {
      end = std::max(end, a.until);
    }
  }
  return end;
}

// --- parser ---

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();

// `random`, `?name`, or a non-negative index.
bool ParseTarget(const std::string& tok, int* target, std::string* pick) {
  *target = kRandomTarget;
  pick->clear();
  if (tok == "random") {
    return true;
  }
  if (tok.size() > 1 && tok[0] == '?') {
    *pick = tok.substr(1);
    return true;
  }
  return ParseNumber(tok, 0, kMaxInt, target);
}

}  // namespace

std::vector<Scenario> ParseScenarios(const std::string& text,
                                     std::string* error) {
  std::vector<Scenario> scenarios;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::vector<Scenario>();
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> t = SplitTokens(line);
    if (t.empty()) {
      continue;
    }
    if (t[0] == "scenario") {
      if (t.size() != 2) {
        return fail("expected: scenario <name>");
      }
      scenarios.push_back(Scenario{t[1], {}, {}, {}});
      continue;
    }
    if (scenarios.empty()) {
      return fail("statement before any 'scenario' header");
    }
    Scenario& s = scenarios.back();

    if (t[0] == "workload") {
      std::string why;
      if (!workload::ParseSpec(t, 1, &s.workload, &why)) {
        return fail(why);
      }
      continue;
    }

    if (t[0] == "adversary") {
      std::string why;
      if (!adversary::ParseSpec(t, 1, &s.adversary, &why)) {
        return fail(why);
      }
      continue;
    }

    if (t[0] == "flap") {
      // flap cable <target> period <time> from <time> until <time>
      Action a;
      a.kind = Action::Kind::kFlapCable;
      if (t.size() != 9 || t[1] != "cable" || t[3] != "period" ||
          t[5] != "from" || t[7] != "until" ||
          !ParseTarget(t[2], &a.target, &a.pick) ||
          !ParseTime(t[4], &a.period) || !ParseTime(t[6], &a.at) ||
          !ParseTime(t[8], &a.until)) {
        return fail(
            "expected: flap cable <target> period <t> from <t> until <t>");
      }
      if (a.period <= 0) {
        return fail("flap period must be positive");
      }
      s.actions.push_back(a);
      continue;
    }

    if (t[0] != "at" || t.size() < 3) {
      return fail("expected: at <time> <action> ...");
    }
    Tick at;
    if (!ParseTime(t[1], &at)) {
      return fail("bad time literal '" + t[1] + "'");
    }
    const std::string& verb = t[2];

    if ((verb == "cut" || verb == "restore") && t.size() >= 4 &&
        t[3] == "cable") {
      Action a;
      a.kind = verb == "cut" ? Action::Kind::kCutCable
                             : Action::Kind::kRestoreCable;
      a.at = at;
      if (t.size() != 5 || !ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("expected: at <time> " + verb + " cable <target>");
      }
      s.actions.push_back(a);
    } else if ((verb == "crash" || verb == "restart") && t.size() == 5 &&
               t[3] == "switch") {
      Action a;
      a.kind = verb == "crash" ? Action::Kind::kCrashSwitch
                               : Action::Kind::kRestartSwitch;
      a.at = at;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad switch target '" + t[4] + "'");
      }
      s.actions.push_back(a);
    } else if ((verb == "cut" || verb == "restore") && t.size() == 6 &&
               t[3] == "hostlink") {
      Action a;
      a.kind = verb == "cut" ? Action::Kind::kCutHostLink
                             : Action::Kind::kRestoreHostLink;
      a.at = at;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad host target '" + t[4] + "'");
      }
      if (t[5] == "primary") {
        a.which = 0;
      } else if (t[5] == "alternate") {
        a.which = 1;
      } else {
        return fail("expected 'primary' or 'alternate'");
      }
      s.actions.push_back(a);
    } else if (verb == "corrupt" && t.size() == 7 && t[3] == "cable" &&
               t[5] == "rate") {
      Action a;
      a.kind = Action::Kind::kCorruptCable;
      a.at = at;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad cable target '" + t[4] + "'");
      }
      if (!ParseNumber(t[6], 0.0, 1.0, &a.rate)) {
        return fail("bad corruption rate '" + t[6] + "' (0..1)");
      }
      s.actions.push_back(a);
    } else if (verb == "reflect" && t.size() == 7 && t[3] == "cable" &&
               t[5] == "side") {
      Action a;
      a.kind = Action::Kind::kReflectCable;
      a.at = at;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad cable target '" + t[4] + "'");
      }
      if (t[6] == "a") {
        a.which = 0;
      } else if (t[6] == "b") {
        a.which = 1;
      } else {
        return fail("expected side 'a' or 'b'");
      }
      s.actions.push_back(a);
    } else if (verb == "burst" && t.size() >= 5 && t[3] == "cables") {
      Action a;
      a.kind = Action::Kind::kBurstCables;
      a.at = at;
      if (t.size() != 7 || t[5] != "until" ||
          !ParseTime(t[6], &a.until)) {
        return fail("expected: at <time> burst cables <count> until <time>");
      }
      if (!ParseNumber(t[4], 1, kMaxInt, &a.count)) {
        return fail("bad burst count '" + t[4] + "' (>= 1)");
      }
      s.actions.push_back(a);
    } else if (verb == "burst" && t.size() >= 5 && t[3] == "switches") {
      Action a;
      a.kind = Action::Kind::kBurstSwitches;
      a.at = at;
      a.until = -1;  // never restart by default
      if (t.size() == 7 && t[5] == "until") {
        if (!ParseTime(t[6], &a.until)) {
          return fail("bad time literal '" + t[6] + "'");
        }
      } else if (t.size() != 5) {
        return fail(
            "expected: at <time> burst switches <count> [until <time>]");
      }
      if (!ParseNumber(t[4], 1, kMaxInt, &a.count)) {
        return fail("bad burst count '" + t[4] + "' (>= 1)");
      }
      s.actions.push_back(a);
    } else {
      return fail("unrecognized action '" + verb + "'");
    }
  }
  if (error != nullptr) {
    error->clear();
  }
  return scenarios;
}

}  // namespace chaos
}  // namespace autonet
