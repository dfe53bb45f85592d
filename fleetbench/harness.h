#pragma once

// Measurement plumbing of the fleet benchmark: latency samples with the
// ">= 10 samples beyond a percentile" rule, the metric report and its
// one-line JSON result, and the harness's own span recorder (spans wrap
// the benchmark's calls into the program's public API; nothing inside the
// program is instrumented by them).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/warning.h"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

uint64_t NowNs();
double SecondsSince(Clock::time_point t0);

/// Resident set size in KiB (/proc/self/status VmRSS); 0 if unreadable.
long RssKib();

/// 64-bit FNV-1a.
uint64_t Fnv1a(const char* data, size_t n, uint64_t h = 0xcbf29ce484222325ull);

/// Exact fingerprint of a warning: the rendered text plus every double in
/// %a form, so two warnings match only when they are bit-identical.
std::string Fingerprint(const glint::core::ThreatWarning& w);

/// A latency sample. Percentiles are nearest-rank and exist only when at
/// least 10 samples lie beyond them.
class Samples {
 public:
  void Add(double x) { xs_.push_back(x); }
  void Append(const Samples& o) { xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end()); }
  size_t size() const { return xs_.size(); }
  bool Supports(double p) const {
    return static_cast<double>(xs_.size()) * (1.0 - p) >= 10.0 - 1e-9;
  }
  /// Nearest-rank percentile; 0 on an empty sample.
  double Percentile(double p) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> xs_;
};

/// The run's metrics and verdict; renders the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds percentile `p` of `s` as `name`, or marks the run invalid when
  /// the sample cannot support it.
  void AddPercentile(const std::string& name, const Samples& s, double p,
                     const std::string& unit);
  /// Marks the run failed (correctness gate or validity rule) with a reason.
  void Fail(const std::string& why);
  bool ok() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }
  std::string Json(uint64_t attempted, uint64_t failed) const;
  /// Human-readable table of every metric.
  std::string Table() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> problems_;
};

// ---- Spans ------------------------------------------------------------------

/// Span recorder: off unless Enable() is called. Each thread appends to its
/// own buffer; WriteAndSummarize() runs once at the end of the run, after
/// every recording thread has stopped.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Id of the innermost open span on this thread (0 = none).
  static uint64_t Current();

  struct Layer {
    uint64_t spans = 0;
    double total_ms = 0;  ///< summed span durations
    double self_ms = 0;   ///< durations minus the time child spans cover
  };
  /// Writes every span to `path` (TSV: id, parent, name, start_ns,
  /// end_ns) and returns per-name totals and self times.
  static std::map<std::string, Layer> WriteAndSummarize(const std::string& path);
  /// Spans recorded so far (all threads).
  static uint64_t Count();
};

/// Records [construction, destruction) as a span named `name` (a string
/// literal) under `parent` (default: this thread's open span). Inactive
/// when tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t parent = ~0ull);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }
  /// Duration so far (ms); valid even when tracing is off.
  double ElapsedMs() const;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t prev_current_ = 0;
  uint64_t start_ns_;
};

}  // namespace fleetbench
