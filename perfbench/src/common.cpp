#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

// ---- tracer -----------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

double Tracer::now_us() const {
  return seconds_between(origin_, Clock::now()) * 1e6;
}

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.t0_us = t;
  s.parent = open_;
  s.request = request;
  spans_.push_back(std::move(s));
  open_ = static_cast<std::int64_t>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(std::int64_t id) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1_us = t;
  open_ = s.parent;
}

void Tracer::add_async(const std::string& name, Clock::time_point t0,
                       Clock::time_point t1, std::uint64_t request) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.t0_us = seconds_between(origin_, t0) * 1e6;
  s.t1_us = seconds_between(origin_, t1) * 1e6;
  s.request = request;
  s.async = true;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"id\":%llu,"
                    "\"pid\":1,\"tid\":2,\"ts\":%.3f},\n"
                    "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"id\":%llu,"
                    "\"pid\":1,\"tid\":2,\"ts\":%.3f}",
                    s.name.c_str(), static_cast<unsigned long long>(s.request),
                    s.t0_us, s.name.c_str(),
                    static_cast<unsigned long long>(s.request), s.t1_us);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"call\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%lld,\"request\":%llu}}",
                    s.name.c_str(), s.t0_us, s.t1_us - s.t0_us, i,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
    }
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::map<std::string, Tracer::Row> Tracer::layer_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent never overlap (they nest on one thread), so
  // the covered part of a span is the sum of its children's durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (!s.async && s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
    }
  }
  std::map<std::string, Row> table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) continue;
    const double dur = s.t1_us - s.t0_us;
    const std::string layer =
        s.parent < 0 ? "unattributed" : s.name.substr(0, s.name.find('.'));
    Row& r = table[layer];
    r.total_ms += dur / 1e3;
    r.self_ms += (dur - covered[i]) / 1e3;
    ++r.count;
  }
  return table;
}

// ---- host guard ---------------------------------------------------------------

HostGuard::CpuTimes HostGuard::read_proc_stat() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal guest guest_nice
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (double& x : v) fields >> x;
  const double idle = v[3] + v[4];
  t.steal = v[7];
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
  t.total = t.busy + idle;
  return t;
}

double HostGuard::process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double HostGuard::spin_once_s() {
  // A fixed dependent-arithmetic loop: its time moves only with the CPU
  // share this thread gets, so a slowdown means something else runs here.
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    const auto t0 = Clock::now();
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

HostGuard::HostGuard()
    : start_(read_proc_stat()),
      proc_start_(process_cpu_s()),
      spin_before_s_(spin_once_s()) {}

double HostGuard::finish() {
  const double spin_after = spin_once_s();
  spin_ratio_ = spin_before_s_ > 0.0 ? spin_after / spin_before_s_ : 1.0;
  const CpuTimes end = read_proc_stat();
  const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double total_s = (end.total - start_.total) / ticks_per_s;
  const double busy_s = (end.busy - start_.busy) / ticks_per_s;
  const double own_s = process_cpu_s() - proc_start_;
  if (total_s <= 0.0) return 0.0;
  steal_frac_ = (end.steal - start_.steal) / ticks_per_s / total_s;
  return std::clamp((busy_s - own_s) / total_s, 0.0, 1.0);
}

}  // namespace perfbench
