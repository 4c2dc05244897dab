#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t LiveThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtoll(line.c_str() + 8, nullptr, 10);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

bool Report::Check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) correct_ = false;
  return ok;
}

void Report::Invalidate(const std::string& reason) {
  invalid_.push_back(reason);
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const std::string& key, json::Value value) {
  notes_.emplace_back(key, std::move(value));
}

void Report::Print() const {
  for (const auto& [name, m] : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.6g %-8s (n=%lld)\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("  %-36s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  %-36s %14lld / %lld (fail_frac %.6f)\n", "failed/attempted",
              static_cast<long long>(failed_),
              static_cast<long long>(attempted_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  for (const auto& [key, value] : notes_) {
    std::string text = value.Dump();
    std::replace(text.begin(), text.end(), '\n', ' ');
    std::printf("  %-36s %s\n", key.c_str(), text.c_str());
  }
  for (const auto& [what, ok] : checks_) {
    std::printf("  check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
  for (const std::string& reason : invalid_) {
    std::printf("  INVALID RUN: %s\n", reason.c_str());
  }
}

std::string Report::ResultLine(const std::vector<std::string>& names) const {
  // One line, every value with all its digits.
  std::string metrics;
  char value[64];
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    metrics += (metrics.empty() ? "" : ", ") + json::Quote(name) +
               ": {\"value\": " + value +
               ", \"unit\": " + json::Quote(it->second.unit) + "}";
  }
  return std::string("{\"correct\": ") +
         (correct_ && valid() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_)) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

json::Value Report::ToJson() const {
  json::Value out = json::Value::Object();
  for (const auto& [key, value] : notes_) out.Set(key, value);
  json::Value metrics = json::Value::Object();
  for (const auto& [name, m] : metrics_) {
    json::Value v = json::Value::Object();
    v.Set("value", json::Value::Number(m.value));
    v.Set("unit", json::Value::Str(m.unit));
    v.Set("samples", json::Value::Int(m.samples));
    metrics.Set(name, std::move(v));
  }
  out.Set("metrics", std::move(metrics));
  json::Value checks = json::Value::Array();
  for (const auto& [what, ok] : checks_) {
    json::Value c = json::Value::Object();
    c.Set("check", json::Value::Str(what));
    c.Set("ok", json::Value::Bool(ok));
    checks.Append(std::move(c));
  }
  out.Set("checks", std::move(checks));
  json::Value invalid = json::Value::Array();
  for (const std::string& reason : invalid_) {
    invalid.Append(json::Value::Str(reason));
  }
  out.Set("invalid_reasons", std::move(invalid));
  out.Set("valid", json::Value::Bool(valid()));
  out.Set("correct", json::Value::Bool(correct_));
  out.Set("attempted", json::Value::Int(attempted_));
  out.Set("failed", json::Value::Int(failed_));
  return out;
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
thread_local int64_t t_open_span = -1;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Finish(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = parent_;
  Span span;
  span.name = name_;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start_ - tracer_->epoch_)
                      .count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - tracer_->epoch_)
                    .count();
  tracer_->Finish(span);
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t request) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = NextId();
  span.request = request;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  Finish(span);
}

int64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  // Children of one parent never overlap each other (they ran on the
  // parent's thread, one after another), so the covered part of a parent's
  // interval is the sum of its children's durations.
  std::map<int64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameStats> out;
  for (const Span& s : spans) {
    NameStats& st = out[s.name];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const auto it = child_ns.find(s.id);
    const double child_ms =
        it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    ++st.count;
    st.total_ms += ms;
    st.self_ms += std::max(0.0, ms - child_ms);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\n\"summary\": {\n";
  const auto summary = Summarize();
  size_t k = 0;
  for (const auto& [name, st] : summary) {
    out << json::Quote(name) << ": {\"count\":" << st.count
        << ",\"total_ms\":" << st.total_ms << ",\"self_ms\":" << st.self_ms
        << "}" << (++k < summary.size() ? ",\n" : "\n");
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Config

bool Config::Load(const std::string& path, const std::string& workload,
                  std::string* error) {
  if (!json::Value::ParseFile(path, &root_, error)) return false;
  const json::Value& workloads = root_.Get("workloads");
  if (!workloads.Has(workload)) {
    *error = "unknown workload '" + workload + "' (not in " + path + ")";
    return false;
  }
  workload_ = workloads.Get(workload);
  return true;
}

namespace {
[[noreturn]] void MissingKey(const std::string& key) {
  std::fprintf(stderr, "perfbench: config key '%s' missing\n", key.c_str());
  std::exit(2);
}
}  // namespace

const json::Value& Config::Section(const std::string& key) const {
  if (workload_.Has(key)) return workload_.Get(key);
  if (root_.Has(key)) return root_.Get(key);
  MissingKey(key);
}

double Config::Num(const std::string& key) const {
  const json::Value& v = Section(key);
  if (!v.is_number()) MissingKey(key);
  return v.AsDouble();
}

int64_t Config::Int(const std::string& key) const {
  return static_cast<int64_t>(std::llround(Num(key)));
}

}  // namespace perfbench
