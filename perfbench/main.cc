// The benchmark's measuring program.  Runs one workload for a number of
// reps set by --seconds and prints everything it measured as one JSON
// object on stdout; perfbench/run.py builds it, turns that object into
// metrics and checks the outputs.
//
//   perfbench --workload bulk_srclan|chaos_baseline|rpc_reconfig
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced, it repeats the workload for about S seconds (S over the
// workload's nominal rep time, at least three reps).  Traced, it alternates
// half as many reps with spans and PC sampling on with as many without, so
// traced CPU over untraced CPU is the tracing overhead, and writes the spans
// to FILE.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

constexpr int kSampleIntervalUs = 1000;
// Set-ups timed per run (at least), in one burst before each rep; setup_s is
// the median over the bursts of each burst's fastest set-up.  They are
// timed with the thread CPU clock: a set-up does no I/O, and wall time added
// preemption by other tenants on top of their slowdown of the CPU.
constexpr long kSetUps = 20;
// Least set-up CPU per rep.  chaos_baseline's set-up takes tens of
// microseconds, and a few such readings after a rep are as cold as the rep
// left the caches; hundreds of them give a steady median.
constexpr double kSetUpCpuPerRep = 0.02;

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string ExePath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

void WriteMap(autonet::JsonWriter& w, const char* key,
              const std::map<std::string, double>& m) {
  w.Key(key).BeginObject();
  for (const auto& [k, v] : m) {
    w.Key(k).Number(v);
  }
  w.EndObject();
}

bool SameRuns(const RepResult& a, const RepResult& b) {
  if (a.chaos_runs.size() != b.chaos_runs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chaos_runs.size(); ++i) {
    if (a.chaos_runs[i].log_hash != b.chaos_runs[i].log_hash ||
        a.chaos_runs[i].metrics_hash != b.chaos_runs[i].metrics_hash) {
      return false;
    }
  }
  return true;
}

int Usage() {
  std::fputs(
      "usage: perfbench --workload bulk_srclan|chaos_baseline|rpc_reconfig "
      "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
      stderr);
  return 2;
}

int Main(int argc, char** argv) {
  // Keep freed memory in the process.  Otherwise glibc hands it back to the
  // kernel and every set-up and rep pays fresh page faults, whose cost moves
  // with the host's memory pressure rather than with the program.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's ceiling on 64-bit
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "perfbench.trace.json";
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[i + 1];
    if (key == "--workload") {
      name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  if (workload == nullptr || !(seconds > 0)) {
    return Usage();
  }

  // At least three untraced reps: run.py keeps each step's least CPU over
  // the reps, which filters out bursts of load from other processes.
  long rep_count =
      std::lround(seconds / workload->nominal_rep_seconds() / (trace ? 2 : 1));
  rep_count = std::max(rep_count, trace ? 1L : 3L);
  // The set-ups are spread over the run, a few before each rep, so their
  // median sees the same spells of load from other tenants as the reps do.
  std::vector<std::vector<double>> setup_s;  // one burst per rep
  const long set_ups_per_rep = (kSetUps + rep_count - 1) / rep_count;
  auto set_up = [&] {
    double spent = 0;
    setup_s.emplace_back();
    for (long i = 0; i < set_ups_per_rep || spent < kSetUpCpuPerRep; ++i) {
      double t0 = ThreadCpuSeconds();
      workload->SetUp();
      setup_s.back().push_back(ThreadCpuSeconds() - t0);
      spent += setup_s.back().back();
    }
  };

  std::vector<RepResult> reps;
  // Peak memory is read after the first rep, so it does not depend on how
  // many reps the run makes.
  set_up();
  reps.push_back(workload->Rep(nullptr));
  double peak_rss_mb = PeakRssMb();

  Tracer tracer;
  PcSampler sampler;
  std::vector<RepResult> traced;
  double traced_cpu = 0;
  double untraced_cpu = 0;
  std::map<std::string, double> routing;
  if (!trace) {
    while (static_cast<long>(reps.size()) < rep_count) {
      set_up();
      reps.push_back(workload->Rep(nullptr));
    }
  } else {
    // After the first rep has warmed the heap, traced and untraced reps
    // alternate, so both see the same spells of load; the tracing overhead
    // is the ratio of their CPU.
    tracer.Enable();
    for (long i = 0; i < rep_count; ++i) {
      double c0 = ProcessCpuSeconds();
      sampler.Start(kSampleIntervalUs);
      traced.push_back(workload->Rep(&tracer));
      sampler.Stop();
      traced_cpu += ProcessCpuSeconds() - c0;
      c0 = ProcessCpuSeconds();
      reps.push_back(workload->Rep(nullptr));
      untraced_cpu += ProcessCpuSeconds() - c0;
    }
    routing = RoutingProbes(&tracer);
  }

  // Every rep of one seed, traced or not, must simulate the same thing.
  std::vector<const RepResult*> all;
  for (const RepResult& r : reps) {
    all.push_back(&r);
  }
  for (const RepResult& r : traced) {
    all.push_back(&r);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> problems;
  for (const RepResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    problems.insert(r->problems.begin(), r->problems.end());
    if (r->model != reps[0].model || r->counts != reps[0].counts ||
        !SameRuns(*r, reps[0])) {
      problems.insert("reps of one seed simulated different things");
    }
  }

  const std::vector<RepResult>& probed = trace ? traced : reps;
  std::map<std::string, double> probe_ms;
  for (const RepResult& r : probed) {
    for (const auto& [k, v] : r.probe_ms) {
      probe_ms[k] += v / static_cast<double>(probed.size());
    }
  }

  autonet::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(name);
  w.Key("seed").UInt(seed);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("problems").BeginArray();
  for (const std::string& p : problems) {
    w.String(p);
  }
  w.EndArray();
  w.Key("peak_rss_mb").Number(peak_rss_mb);
  w.Key("setup_s").BeginArray();
  for (const std::vector<double>& burst : setup_s) {
    w.BeginArray();
    for (double s : burst) {
      w.Number(s);
    }
    w.EndArray();
  }
  w.EndArray();
  w.Key("reps").BeginArray();
  for (const RepResult& r : reps) {
    w.BeginObject();
    w.Key("cpu_s").Number(r.cpu_s);
    w.Key("sim_s").Number(r.sim_s);
    w.Key("ops").Number(r.ops);
    w.Key("payload_bytes").Number(r.payload_bytes);
    w.Key("step_cpu_ms").BeginArray();
    for (double s : r.step_cpu_ms) {
      w.Number(s);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  WriteMap(w, "model", reps[0].model);
  WriteMap(w, "counts", reps[0].counts);
  WriteMap(w, "probe_ms", probe_ms);
  w.Key("chaos_runs").BeginArray();
  for (const RepResult::ChaosRun& run : reps[0].chaos_runs) {
    w.BeginObject();
    w.Key("scenario").String(run.scenario);
    w.Key("topology").String(run.topology);
    w.Key("seed").UInt(run.seed);
    w.Key("ok").Bool(run.ok);
    w.Key("log_hash").String(Hex(run.log_hash));
    w.Key("metrics_hash").String(Hex(run.metrics_hash));
    w.EndObject();
  }
  w.EndArray();
  if (trace) {
    w.Key("trace").BeginObject();
    w.Key("reps").UInt(traced.size());
    w.Key("cpu_s_untraced").Number(untraced_cpu);
    w.Key("cpu_s_traced").Number(traced_cpu);
    WriteMap(w, "self_ms", tracer.SelfMsByLayer());
    w.Key("send_call_ns").Number(tracer.MeanNs("Network::SendTagged"));
    WriteMap(w, "routing_us", routing);
    w.Key("exe").String(ExePath());
    w.Key("samples").UInt(sampler.total());
    w.Key("pcs").BeginArray();
    for (const auto& [offset, n] : sampler.ExeOffsetCounts()) {
      w.BeginArray().UInt(offset).UInt(n).EndArray();
    }
    w.EndArray();
    w.Key("file").String(trace_out);
    w.Key("written").Bool(tracer.WriteChromeTrace(trace_out));
    w.EndObject();
  }
  w.EndObject();
  std::string out = w.Take();
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
