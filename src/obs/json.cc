#include "src/obs/json.h"

#include <cmath>
#include <cstdio>

namespace autonet {

// --- writer ---

void JsonWriter::BeforeValue() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already emitted the comma
  }
  if (!stack_.empty()) {
    if (stack_.back().has_value) {
      out_ += ',';
    }
    stack_.back().has_value = true;
  }
}

void JsonWriter::Escape(std::string_view s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back({'o'});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back({'a'});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  if (!stack_.empty() && stack_.back().has_value) {
    out_ += ',';
  }
  if (!stack_.empty()) {
    stack_.back().has_value = true;
  }
  Escape(name);
  out_ += ':';
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  Escape(value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

bool WriteFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace autonet
