#include "src/workload/spec.h"

#include <limits>
#include <sstream>

#include "src/common/tokens.h"

namespace autonet {
namespace workload {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kRpc:
      return "rpc";
    case Kind::kAllreduce:
      return "allreduce";
    case Kind::kStreams:
      return "streams";
  }
  return "none";
}

namespace {

constexpr long long kNoLimit = std::numeric_limits<long long>::max();

}  // namespace

std::string Spec::ToText() const {
  std::ostringstream out;
  out << KindName(kind);
  if (kind == Kind::kNone) {
    return out.str();
  }
  out << " bytes " << data_bytes;
  switch (kind) {
    case Kind::kRpc:
      out << " response " << response_bytes << " window " << window
          << " timeout " << FormatTime(timeout);
      break;
    case Kind::kAllreduce:
      out << " timeout " << FormatTime(timeout);
      break;
    case Kind::kStreams:
      out << " period " << FormatTime(period) << " deadline "
          << FormatTime(deadline);
      break;
    case Kind::kNone:
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
    return fail("expected a workload kind (rpc|allreduce|streams)");
  }
  Spec spec;
  const std::string& kind = tokens[start];
  if (kind == "rpc") {
    spec.kind = Kind::kRpc;
  } else if (kind == "allreduce") {
    spec.kind = Kind::kAllreduce;
  } else if (kind == "streams") {
    spec.kind = Kind::kStreams;
  } else if (kind == "none") {
    spec.kind = Kind::kNone;
  } else {
    return fail("unknown workload kind '" + kind + "'");
  }
  for (std::size_t i = start + 1; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      return fail("workload key '" + tokens[i] + "' is missing a value");
    }
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    long long count = 0;
    Tick t = 0;
    if (key == "bytes") {
      if (!ParseNumber(value, 1LL, kNoLimit, &count)) {
        return fail("bad bytes '" + value + "'");
      }
      spec.data_bytes = static_cast<std::size_t>(count);
    } else if (key == "response") {
      if (!ParseNumber(value, 1LL, kNoLimit, &count)) {
        return fail("bad response '" + value + "'");
      }
      spec.response_bytes = static_cast<std::size_t>(count);
    } else if (key == "window") {
      if (!ParseNumber(value, 1LL, 64LL, &count)) {
        return fail("bad window '" + value + "' (1..64)");
      }
      spec.window = static_cast<int>(count);
    } else if (key == "period") {
      if (!ParseTime(value, &t) || t <= 0) {
        return fail("bad period '" + value + "'");
      }
      spec.period = t;
    } else if (key == "deadline") {
      if (!ParseTime(value, &t) || t <= 0) {
        return fail("bad deadline '" + value + "'");
      }
      spec.deadline = t;
    } else if (key == "timeout") {
      if (!ParseTime(value, &t) || t <= 0) {
        return fail("bad timeout '" + value + "'");
      }
      spec.timeout = t;
    } else {
      return fail("unknown workload key '" + key + "'");
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

}  // namespace workload
}  // namespace autonet
