// Shared helpers for the benchmark harnesses: table formatting and common
// measurement drivers.  Each bench binary regenerates one table/figure of
// the paper's evaluation (see DESIGN.md's experiment index) and prints the
// paper's reported value next to the measured one.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/obs/json.h"

namespace autonet {
namespace bench {

inline void Title(const std::string& id, const std::string& what) {
  std::printf("\n=== %s: %s ===\n", id.c_str(), what.c_str());
}

[[gnu::format(printf, 1, 2)]] inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

inline double Ms(Tick t) { return static_cast<double>(t) / 1e6; }
inline double Us(Tick t) { return static_cast<double>(t) / 1e3; }

// Machine-readable companion to the printed table: accumulates measurement
// rows and writes them as BENCH_<id>.json in the working directory, so
// tooling can track the regenerated figures across runs.
//
//   JsonReport report("E1");
//   report.rows().BeginObject();
//   report.rows().Key("preset").String("tuned").Key("cut_ms").Number(412.0);
//   report.rows().EndObject();
//   ...
//   report.Write();  // {"bench": "E1", "rows": [...]}
class JsonReport {
 public:
  explicit JsonReport(const std::string& id)
      : path_("BENCH_" + id + ".json") {
    writer_.BeginObject();
    writer_.Key("bench").String(id);
    writer_.Key("rows").BeginArray();
  }

  // Append rows through this writer (each row one object in the array).
  JsonWriter& rows() { return writer_; }

  bool Write() {
    writer_.EndArray();
    writer_.EndObject();
    if (!WriteFile(path_, writer_.Take())) {
      return false;
    }
    std::printf("\n[wrote %s]\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  JsonWriter writer_;
};

}  // namespace bench
}  // namespace autonet

#endif  // BENCH_BENCH_UTIL_H_
