#include "perfbench/probes.h"

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "src/obs/json.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sampler state lives in statics because the signal handler can reach
// nothing else.  One simulation thread runs at a time, so the handler never
// races with itself; the atomic index keeps it async-signal-safe anyway.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_sample_count{0};

void OnProf(int, siginfo_t*, void* context) {
  auto* uc = static_cast<ucontext_t*>(context);
  std::size_t i = g_sample_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  }
}

struct ExeImage {
  std::uintptr_t bias = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;  // [lo, hi)
};

// The first object dl_iterate_phdr reports is the main executable.
ExeImage FindExeImage() {
  ExeImage image;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        auto* img = static_cast<ExeImage*>(out);
        img->bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            img->text.emplace_back(lo, lo + ph.p_memsz);
          }
        }
        return 1;
      },
      &image);
  return image;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark of
// the process image exec replaced (here run.py, which forked us).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) {
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, layer, NowNs(), -1, tracer_->open_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = NowNs();
  tracer_->open_ = span.parent;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns >= 0) {
      std::int64_t self_ns = s.end_ns - s.start_ns - child_ns[i];
      self[s.layer] += static_cast<double>(self_ns) / 1e6;
    }
  }
  return self;
}

double Tracer::MeanNs(const std::string& name) const {
  double sum = 0;
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      sum += static_cast<double>(s.end_ns - s.start_ns);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  autonet::JsonWriter w;
  w.BeginObject().Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (const Span& s : spans_) {
    if (s.end_ns < 0) {
      continue;
    }
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("cat").String(s.layer);
    w.Key("ph").String("X");
    w.Key("ts").Number(static_cast<double>(s.start_ns - t0) / 1e3);
    w.Key("dur").Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.Key("pid").Int(1);
    w.Key("tid").Int(1);
    w.EndObject();
  }
  w.EndArray().EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string& json = w.str();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void PcSampler::Start(int interval_us) {
  struct sigaction sa {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void PcSampler::Stop() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
}

std::uint64_t PcSampler::total() const {
  return std::min(g_sample_count.load(), kMaxSamples);
}

std::map<std::uint64_t, std::uint64_t> PcSampler::ExeOffsetCounts() const {
  ExeImage image = FindExeImage();
  std::map<std::uint64_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < total(); ++i) {
    std::uintptr_t pc = g_samples[i];
    for (const auto& [lo, hi] : image.text) {
      if (pc >= lo && pc < hi) {
        ++counts[pc - image.bias];
        break;
      }
    }
  }
  return counts;
}

}  // namespace perfbench
