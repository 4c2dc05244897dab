#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

// Shared plumbing of the benchmark driver: the run report (metrics, checks,
// validity), the span tracer, and small statistics helpers. Everything here
// lives outside the library; the benchmark only calls the library's public
// functions and times those calls from the outside.

namespace perfbench {

namespace json = d2stgnn::json;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Type-7 percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();
/// Threads currently alive in this process (/proc/self/status).
int64_t LiveThreads();

/// Everything a run reports: end-to-end or per-layer metrics, correctness
/// checks (a failed check makes the run incorrect), validity (a run whose
/// load generator ran late or whose threads exceeded the core budget is not
/// a trustworthy measurement), and the attempted/failed operation counts.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0);
  bool Has(const std::string& name) const;

  /// Records a correctness check; returns `ok`.
  bool Check(bool ok, const std::string& what);
  void Invalidate(const std::string& reason);
  void CountOps(int64_t attempted, int64_t failed);
  void Note(const std::string& key, json::Value value);

  bool correct() const { return correct_; }
  bool valid() const { return invalid_.empty(); }

  /// Human-readable lines: one per metric with unit and sample count, then
  /// every check and validity verdict.
  void Print() const;
  /// The driver-facing last line, restricted to `names`.
  std::string ResultLine(const std::vector<std::string>& names) const;
  /// The full report (metrics, checks, stamp notes) as JSON.
  json::Value ToJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> invalid_;
  std::vector<std::pair<std::string, json::Value>> notes_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// In-memory span recorder. A span has a name, start, end, the span that
/// was open on the same thread when it began (its parent), and an optional
/// request id. Spans are appended under a mutex when they end and written
/// out once, at exit. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t request_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
    Clock::time_point start_;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  /// Records an already-measured interval (e.g. a request's sojourn, whose
  /// start is its scheduled send time) with no parent.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t request);

  /// Per span name: count, total and self time (duration minus the part of
  /// the interval its child spans cover), milliseconds.
  struct NameStats {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameStats> Summarize() const;
  int64_t span_count() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  int64_t NextId();
  void Finish(Span span);

  std::atomic<bool> enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  int64_t next_id_ = 0;       ///< guarded by mu_
  std::vector<Span> spans_;   ///< guarded by mu_
};

/// Fixed workload settings read from perfbench/workloads.json.
class Config {
 public:
  bool Load(const std::string& path, const std::string& workload,
            std::string* error);
  double Num(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  const json::Value& Section(const std::string& key) const;

 private:
  json::Value root_;
  json::Value workload_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
