// Measurement helpers for the repository benchmark: clocks, in-memory spans
// around the calls the benchmark makes into each layer, and a CPU-time
// program-counter sampler.  Nothing here reaches into src/; every span wraps
// a public call made from the benchmark's own files.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double ProcessCpuSeconds();
double ThreadCpuSeconds();
double PeakRssMb();

// Spans recorded in memory while enabled and written out at the end as a
// Chrome trace that Perfetto (ui.perfetto.dev) loads directly.  Spans nest:
// a span opened while another is open is its child, and a layer's self time
// is its spans' durations minus the time their children cover.  Disabled,
// a Scope costs one branch.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Self time per layer in milliseconds, over every closed span.
  std::map<std::string, double> SelfMsByLayer() const;
  // Mean duration in nanoseconds of the spans with this name (0 if none).
  double MeanNs(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;  // static strings: spans are written out at the end
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;  // -1 while open
    int parent;           // index of the enclosing span, -1 for none
  };

  bool enabled_ = false;
  std::vector<Span> spans_;
  int open_ = -1;
};

// Samples the interrupted program counter on a process CPU-time timer
// (SIGPROF) while started; samples accumulate over every Start/Stop.
// Addresses inside the benchmark executable are reported as offsets that
// addr2line resolves against the executable file; everything else (libc,
// libstdc++, the vdso) is left out of the offsets and shows only in total().
class PcSampler {
 public:
  void Start(int interval_us);
  void Stop();

  std::map<std::uint64_t, std::uint64_t> ExeOffsetCounts() const;
  std::uint64_t total() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
