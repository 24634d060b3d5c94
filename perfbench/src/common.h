// Shared plumbing of the perfbench binary: clocks, sample sets, the
// in-memory span tracer, the metric report and the environment record.
//
// Nothing here knows about a workload; scenario.h builds inputs and
// oracles, phases.h drives the serving stack, layers.h measures single
// layers, and main.cc wires them together.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (arbitrary epoch, monotonic).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A set of timing samples, each optionally stamped with when it was taken.
/// Quantiles interpolate linearly between order statistics (the "linear"
/// method of numpy.quantile).
class Samples {
 public:
  void Add(double v, int64_t at_ns = 0) {
    values_.push_back(v);
    at_ns_.push_back(at_ns);
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// q in [0, 1]; NaN when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Splits the samples by stamp into consecutive windows of `window_ns`
  /// (at least one; a short tail joins the last window), takes quantile q
  /// in each and returns the median over windows. A burst of host noise
  /// then moves one window's tail, not the reported figure.
  double WindowedQuantile(double q, int64_t window_ns) const;
  /// In insertion order.
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  std::vector<int64_t> at_ns_;
};

/// One recorded span: a call the benchmark made into a layer, or a stage
/// the server reported back for a traced request.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;       // index of the enclosing span, -1 for none
  uint64_t request_id = 0;   // shared by every span of one request
  bool server_reported = false;
};

/// In-memory span recorder, shared by the benchmark's threads (a span may
/// begin on the thread that sends a request and end on the one that
/// receives its reply). Disabled tracers record nothing and cost one
/// branch per call; the untraced (end-to-end) runs use a disabled one.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its handle (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent = -1,
                uint64_t request_id = 0);
  void End(int64_t handle);
  /// Records a finished span with explicit bounds (server-reported stages).
  int64_t Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, uint64_t request_id, bool server_reported);

  size_t size() const;
  /// Writes {"spans": [...]} to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int64_t parent = -1,
             uint64_t request_id = 0)
      : tracer_(t), handle_(t->Begin(name, parent, request_id)) {}
  ~ScopedSpan() { tracer_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t handle() const { return handle_; }

 private:
  Tracer* tracer_;
  int64_t handle_;
};

/// Keeps every CPU of a virtual machine busy at idle priority while load
/// runs. An idle vCPU halts, and waking it costs the host's scheduling
/// latency (milliseconds at the tail on a shared host); with one
/// SCHED_IDLE thread spinning per CPU no vCPU halts, and any benchmark or
/// server thread that wakes preempts the spinner at once.
class KeepCpusAwake {
 public:
  KeepCpusAwake();
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Operations attempted and failed; a wrong answer, a typed error, a
/// timeout and a refusal each count as one failure.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;   // of `failed`: answers that disagreed with an oracle
  std::vector<std::string> first_failures;  // a few messages for the log

  void Ok() { ++attempted; }
  void Fail(const std::string& why, bool wrong_answer);
  void Merge(const Tally& o);
};

/// One named metric as the report prints it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;   // 0: not a sampled timing (a count, a size, ...)
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, const std::string& note = "");
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable table, one metric a line, with sample counts.
  void Print(const char* title) const;
  /// JSON object of the named metrics {"name": {"value", "unit"}, ...};
  /// `missing` receives names that were not reported.
  std::string MetricsJson(const std::vector<std::string>& names,
                          std::vector<std::string>* missing) const;

 private:
  std::vector<Metric> metrics_;
};

/// Where and on what the run happened, printed with every run.
struct Environment {
  int nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string source_id;   // passed in by run.py (git commit or tree digest)
  bool perf_event_open = false;
  double loadavg_1m = 0;
  double loadavg_5m = 0;

  static Environment Capture(const std::string& source_id);
  void Print() const;
  std::string Json() const;
};

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);
/// Shortest round-tripping decimal form of a double ("null" for NaN/inf).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
