#include "common.h"

#include <immintrin.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/perf_counters.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return std::nan("");
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Samples::WindowedQuantile(double q, int64_t window_ns) const {
  if (values_.empty()) return std::nan("");
  const auto [lo, hi] = std::minmax_element(at_ns_.begin(), at_ns_.end());
  const int64_t windows = std::max<int64_t>(1, (*hi - *lo) / window_ns);
  std::vector<Samples> parts(static_cast<size_t>(windows));
  for (size_t i = 0; i < values_.size(); ++i) {
    const int64_t w = std::min(windows - 1, (at_ns_[i] - *lo) / window_ns);
    parts[static_cast<size_t>(w)].Add(values_[i]);
  }
  Samples per_window;
  for (const Samples& p : parts) {
    if (!p.empty()) per_window.Add(p.Quantile(q));
  }
  return per_window.Median();
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, 0, parent, request_id, false});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t handle) {
  if (handle < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(handle)].end_ns = now;
}

int64_t Tracer::Record(const std::string& name, int64_t start_ns,
                       int64_t end_ns, int64_t parent, uint64_t request_id,
                       bool server_reported) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request_id,
                    server_reported});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request_id\": "
        << s.request_id << ", \"server_reported\": "
        << (s.server_reported ? "true" : "false") << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

KeepCpusAwake::KeepCpusAwake() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
    });
  }
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

void Tally::Fail(const std::string& why, bool wrong_answer) {
  ++attempted;
  ++failed;
  if (wrong_answer) ++wrong;
  if (first_failures.size() < 8) first_failures.push_back(why);
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  wrong += o.wrong;
  for (const std::string& m : o.first_failures) {
    if (first_failures.size() < 8) first_failures.push_back(m);
  }
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples,
                 const std::string& note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, samples, note};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples, note});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Print(const char* title) const {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics_) {
    std::string count =
        m.samples > 0 ? "n=" + std::to_string(m.samples) : std::string();
    std::printf("  %-34s %14.6g %-9s %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), count.c_str(), m.note.c_str());
  }
}

std::string Report::MetricsJson(const std::vector<std::string>& names,
                                std::vector<std::string>* missing) const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = Find(name);
    if (m == nullptr || !std::isfinite(m->value)) {
      missing->push_back(name);
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m->value) +
           ", \"unit\": " + JsonString(m->unit) + "}";
  }
  return out + "}";
}

namespace {

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Environment Environment::Capture(const std::string& source_id) {
  Environment e;
  e.nproc = static_cast<int>(std::thread::hardware_concurrency());
  e.cpu_model = CpuModel();
  e.build_type = PERFBENCH_BUILD_TYPE;
  e.source_id = source_id.empty() ? "unknown" : source_id;
  {
    actjoin::util::StagePerfCounters probe;
    e.perf_event_open = probe.available();
  }
  std::istringstream load(ReadFirstLine("/proc/loadavg"));
  load >> e.loadavg_1m >> e.loadavg_5m;
  return e;
}

void Environment::Print() const {
  std::printf(
      "environment: nproc=%d cpu=\"%s\" build=%s source=%s "
      "perf_event_open=%s loadavg=%.2f/%.2f (1m/5m, at start)\n",
      nproc, cpu_model.c_str(), build_type.c_str(), source_id.c_str(),
      perf_event_open ? "available" : "denied", loadavg_1m, loadavg_5m);
}

std::string Environment::Json() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(cpu_model) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"source\": " + JsonString(source_id) +
         ", \"perf_event_open\": " + (perf_event_open ? "true" : "false") +
         ", \"loadavg_1m\": " + JsonNumber(loadavg_1m) +
         ", \"loadavg_5m\": " + JsonNumber(loadavg_5m) + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
