// candle_perfbench: the repository's end-to-end benchmark program.
//
//   candle_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
//   candle_perfbench --describe          metric catalogue and frozen loads
//   candle_perfbench --inputs-digest --workload NAME --seed N
//   candle_perfbench --calibrate --seed N
//
// A run prints diagnostics on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, and DIR receives the Chrome trace, the per-layer
// self-time table and the tracing overhead against the untraced run of
// the same workload and seed.  A performance outcome never fails a run;
// only a correctness check does.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"goodput_rps", "1/s"},
    {"latency_p50_ms", "ms"},   {"failed_frac", "fraction"},
    {"samples_per_s", "samples/s"}, {"final_loss", "mse"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"runtime.pool_contention_ratio", "ratio"},
    {"runtime.ws_grow_count", "count"},
    {"runtime.ws_reserved_mb", "MiB"},
    {"core.gemm_gflops_serve", "GFLOP/s"},
    {"core.gemm_gflops_train", "GFLOP/s"},
    {"core.gemm_mflop_per_call", "MFLOP"},
    {"core.gemm_mb_per_call", "MiB"},
    {"nn.infer_b1_ms", "ms"},
    {"nn.infer_b16_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.optimizer_ms", "ms"},
    {"nn.ckpt_write_ms", "ms"},
    {"nn.ckpt_mb", "MiB"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.rows_per_iter", "rows"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.shed_deadline_frac", "fraction"},
    {"serve.shed_queue_full_frac", "fraction"},
    {"serve.price_error", "ratio"},
    {"serve.peak_queue_depth", "rows"},
    {"serve.client_p99_ms", "ms"},
    {"parallel.comm_busy_ms", "ms"},
    {"parallel.exposed_comm_ms", "ms"},
    {"parallel.overlap_frac", "fraction"},
    {"parallel.grad_mb_per_step", "MiB"},
    {"parallel.buckets_per_step", "count"},
    {"parallel.allreduce_ms", "ms"},
    {"parallel.replay_frac", "fraction"},
    {"parallel.ckpts_written", "count"},
    {"parallel.step_p99_ms", "ms"},
    {"data.exposed_ingest_ms", "ms"},
    {"data.ingest_busy_ms", "ms"},
    {"data.ingest_overlap_frac", "fraction"},
    {"data.store_hit_frac", "fraction"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.host_busy_frac", "fraction"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"serve_poisson", run_serve_poisson},
    {"train_dp", run_train_dp},
    {"train_ckpt", run_train_ckpt},
};

/// A run flags itself as loaded above these (see HostGuard).
constexpr double kLoadedBusyFrac = 0.10;
constexpr double kLoadedSpinRatio = 1.25;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N],
                         const std::map<std::string, double>& values) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    s += std::string(i ? ", " : "") + "\"" + defs[i].name + "\": {\"value\": " +
         json_number(it == values.end() ? 0.0 : it->second) + ", \"unit\": \"" +
         defs[i].unit + "\"}";
  }
  return s + "}";
}

/// Reads one flat {"name": number} object as written by write_values.
std::map<std::string, double> read_values(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    const std::size_t colon = text.find(':', end);
    if (end == std::string::npos || colon == std::string::npos) break;
    out[text.substr(pos + 1, end - pos - 1)] = std::strtod(text.c_str() + colon + 1, nullptr);
    pos = text.find_first_of(",}", colon);
  }
  return out;
}

void write_values(const std::string& path, const std::map<std::string, double>& v) {
  std::ofstream out(path);
  out << "{";
  bool first = true;
  for (const auto& [k, x] : v) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << json_number(x);
    first = false;
  }
  out << "}\n";
}

/// Traced-run report: per-layer self-time table with the unattributed
/// residual, and the tracing overhead on every end-to-end metric against
/// the untraced run of the same workload and seed, when one exists.
void write_trace_report(const RunOptions& opt, const RunResult& r,
                        const std::string& stem) {
  tracer().write_chrome_json(stem + ".trace.json");
  std::map<std::string, double> report;
  std::fprintf(stderr, "%-14s %12s %12s %10s\n", "layer", "self_ms", "total_ms", "spans");
  for (const auto& [layer, row] : tracer().layer_table()) {
    std::fprintf(stderr, "%-14s %12.3f %12.3f %10llu\n", layer.c_str(), row.self_ms,
                 row.total_ms, static_cast<unsigned long long>(row.count));
    report["self_ms." + layer] = row.self_ms;
    report["total_ms." + layer] = row.total_ms;
  }
  for (const auto& [k, v] : r.e2e) report["traced." + k] = v;
  const std::string untraced_path = (std::filesystem::path(opt.out_dir) /
                                     (opt.workload + "-seed" + std::to_string(opt.seed) +
                                      ".e2e.json")).string();
  if (std::filesystem::exists(untraced_path)) {
    for (const auto& [k, v] : read_values(untraced_path)) {
      const auto it = r.e2e.find(k);
      if (it == r.e2e.end() || v == 0.0) continue;
      report["overhead." + k] = it->second / v - 1.0;
      std::fprintf(stderr, "tracing overhead %-16s %+.2f%%\n", k.c_str(),
                   100.0 * (it->second / v - 1.0));
    }
  } else {
    std::fprintf(stderr, "tracing overhead: no untraced run of this seed in %s\n",
                 opt.out_dir.c_str());
  }
  write_values(stem + ".layers.json", report);
}

int run_workload(const RunOptions& opt, const Workload& w) {
  std::filesystem::create_directories(opt.out_dir);
  tracer().enable(opt.trace);
  RunResult r;
  bool loaded = false;
  {
    ScopedSpan root("run");
    HostGuard guard;
    r = w.run(opt);
    const double busy = guard.finish();
    r.e2e["peak_rss_mb"] = peak_rss_mb();
    r.layer["loadgen.host_busy_frac"] = busy;
    loaded = busy > kLoadedBusyFrac || guard.spin_ratio() > kLoadedSpinRatio;
    std::fprintf(stderr, "host: busy %.3f  steal %.3f  spin ratio %.3f%s\n", busy,
                 guard.steal_frac(), guard.spin_ratio(),
                 loaded ? "  LOADED: other work shared this host; treat the figures as noisy"
                        : "");
    if (opt.trace) run_layer_probes(opt, r);
  }
  for (const auto& [k, v] : r.e2e) {
    if (!std::isfinite(v)) r.check(false, "metric " + k + " is not finite");
  }
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (!r.correct && r.failed == 0) r.failed = 1;

  const std::string stem = (std::filesystem::path(opt.out_dir) /
                            (opt.workload + "-seed" + std::to_string(opt.seed))).string();
  auto e2e_record = r.e2e;
  e2e_record["loaded"] = loaded ? 1.0 : 0.0;
  if (opt.trace) {
    write_trace_report(opt, r, stem);
  } else {
    write_values(stem + ".e2e.json", e2e_record);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              opt.trace ? metrics_json(kPerLayer, r.layer).c_str()
                        : metrics_json(kEndToEnd, r.e2e).c_str());
  std::fflush(stdout);
  return 0;
}

void describe() {
  const auto list = [](const auto& defs) {
    std::string s = "[";
    for (const auto& d : defs) {
      s += std::string(s.size() > 1 ? ", " : "") + "{\"name\": \"" + d.name +
           "\", \"unit\": \"" + d.unit + "\"}";
    }
    return s + "]";
  };
  std::string workloads = "[";
  for (const auto& w : kWorkloads) {
    workloads += std::string(workloads.size() > 1 ? ", " : "") + "\"" + w.name + "\"";
  }
  workloads += "]";
  std::printf(
      "{\"workloads\": %s, \"end_to_end\": %s, \"per_layer\": %s, \"rates_rps\": "
      "{\"poisson_capacity\": %s, \"poisson_low\": %s, \"poisson_high\": %s}}\n",
      workloads.c_str(), list(kEndToEnd).c_str(), list(kPerLayer).c_str(),
      json_number(kPoissonCapacityRps).c_str(), json_number(kPoissonLowRps).c_str(),
      json_number(kPoissonHighRps).c_str());
}

/// FNV-1a over the generated inputs of a workload: its arrival traces (or
/// crash draw) and its dataset.  Equal seeds must give equal digests.
void inputs_digest(const RunOptions& opt) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  const candle::Dataset d = opt.workload.rfind("serve", 0) == 0
                                ? make_query_pool(opt.seed)
                                : make_queries(kTrainSamples, opt.seed);
  mix(d.x.data(), sizeof(float) * static_cast<std::size_t>(d.x.numel()));
  mix(d.y.data(), sizeof(float) * static_cast<std::size_t>(d.y.numel()));
  const candle::serve::ArrivalTrace traces[] = {poisson_phase_trace(opt.seed, 0, false, 1.0),
                                                 poisson_phase_trace(opt.seed, 0, true, 1.0)};
  for (const auto& t : traces) mix(t.at_s.data(), sizeof(double) * t.at_s.size());
  const CrashPoint crash = train_ckpt_crash(opt.seed);
  mix(&crash, sizeof crash);
  std::printf("%016llx\n", static_cast<unsigned long long>(h));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "candle_perfbench: %s\nusage: candle_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.out_dir = "perfbench/out";
  bool describe_only = false, digest = false, calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--describe") {
      describe_only = true;
    } else if (a == "--inputs-digest") {
      digest = true;
    } else if (a == "--calibrate") {
      calibrate = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" || a == "--trace" ||
               a == "--out-dir") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + a).c_str());
      if (a == "--workload") opt.workload = v;
      if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") opt.seconds = std::strtod(v, nullptr);
      if (a == "--trace") opt.trace = std::strcmp(v, "0") != 0;
      if (a == "--out-dir") opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  try {
    if (describe_only) {
      describe();
      return 0;
    }
    if (calibrate) {
      calibrate_serving(opt.seed);
      return 0;
    }
    if (digest) {
      inputs_digest(opt);
      return 0;
    }
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
    for (const auto& w : kWorkloads) {
      if (opt.workload == w.name) return run_workload(opt, w);
    }
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "candle_perfbench: %s\n", e.what());
    return 1;
  }
}
