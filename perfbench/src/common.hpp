// Shared plumbing of the end-to-end benchmark program: clocks, order
// statistics, the result record every workload fills, the span recorder
// behind the traced run, and the host-load guard.
//
// All timing is taken from outside the program: a span brackets one call
// into a layer's public API, on the benchmark's own thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// What one workload run reports.  `e2e` and `layer` map metric name to
/// value; units live in the metric catalogue (main.cpp).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> check_failures;

  /// Record a correctness check; a failure makes the run incorrect but
  /// never aborts it.
  void check(bool ok, const std::string& what);
};

/// In-memory span recorder.  Spans carry a name ("layer.call"), start and
/// end, the span that was open when they began, and an optional request
/// id shared by every span of one request.  Off by default: a disabled
/// tracer records nothing and ScopedSpan costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
    std::uint64_t request = 0;  ///< 0 = not part of a request
    bool async = false;         ///< interval derived from a response, not
                                ///< a bracketed call on this thread
  };

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  std::int64_t begin(const std::string& name, std::uint64_t request = 0);
  void end(std::int64_t id);
  /// Record a finished interval that was not bracketed on this thread
  /// (e.g. a request's queue wait, known only from its response).
  void add_async(const std::string& name, Clock::time_point t0,
                 Clock::time_point t1, std::uint64_t request);

  /// Chrome trace-event JSON ("X" complete events; "b"/"e" for async).
  void write_chrome_json(const std::string& path) const;

  /// Per-layer self-time table over the bracketed spans.  A span's self
  /// time is its duration minus the part its children cover; the
  /// "unattributed" row is the root spans' self time.
  struct Row {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Row> layer_table() const;

 private:
  double now_us() const;

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

Tracer& tracer();

/// RAII bracket around one call into a layer; a null name records nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0)
      : id_(name != nullptr && tracer().enabled() ? tracer().begin(name, request)
                                                  : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
};

/// Ambient-load guard.  A fixed spin loop is timed against its idle
/// reference, and /proc/stat is read, before and after a run; the busy
/// fraction of the host over the run excludes this process's own CPU time.
class HostGuard {
 public:
  HostGuard();
  /// Close the window; returns the share of the other cores' time that
  /// other processes (or the hypervisor, as steal) kept busy, in [0, 1].
  double finish();
  /// Spin slowdown, after / before (1 = no change in ambient load).
  double spin_ratio() const { return spin_ratio_; }
  double steal_frac() const { return steal_frac_; }

 private:
  struct CpuTimes {
    double busy = 0.0, total = 0.0, steal = 0.0;
  };
  static CpuTimes read_proc_stat();
  static double process_cpu_s();
  static double spin_once_s();

  CpuTimes start_;
  double proc_start_ = 0.0;
  double spin_before_s_ = 0.0;
  double spin_ratio_ = 1.0;
  double steal_frac_ = 0.0;
};

}  // namespace perfbench
