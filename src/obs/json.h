// Minimal JSON output for the telemetry subsystem: a streaming writer with
// automatic comma/escape handling (metric snapshots, Chrome trace events,
// bench result files).  Not a general-purpose JSON library.  The tests read
// these artifacts back with tests/json_parse.h.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autonet {

// Streaming JSON writer.  Begin/End calls must nest correctly; inside an
// object every value must be preceded by Key().  Commas are inserted
// automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);  // non-finite values serialize as null
  JsonWriter& Int(std::int64_t value);
  JsonWriter& UInt(std::uint64_t value);
  JsonWriter& Bool(bool value);
  // Splices pre-serialized JSON (e.g. a registry snapshot) in as one value.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();
  void Escape(std::string_view s);

  std::string out_;
  // One frame per open container: 'o'/'a', plus whether a value has been
  // emitted at this level (comma needed) and, for objects, whether the next
  // value is a key.
  struct Frame {
    char kind;
    bool has_value = false;
  };
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

// Writes `text` to `path`, replacing any previous contents: the one file
// writer behind every report, metrics and trace export.  False on any I/O
// failure.
bool WriteFile(const std::string& path, std::string_view text);

}  // namespace autonet

#endif  // SRC_OBS_JSON_H_
