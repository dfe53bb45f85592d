#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>

namespace fleetbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

long RssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

uint64_t Fnv1a(const char* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Fingerprint(const glint::core::ThreatWarning& w) {
  char buf[64];
  std::string out = w.Render();
  std::snprintf(buf, sizeof buf, "|%d%d|%a", w.threat ? 1 : 0,
                w.drifting ? 1 : 0, w.confidence);
  out += buf;
  for (const auto& c : w.culprits) {
    std::snprintf(buf, sizeof buf, "|%d:%a", c.node, c.importance);
    out += buf;
  }
  return out;
}

// ---- Samples ----------------------------------------------------------------

double Samples::Percentile(double p) const {
  if (xs_.empty()) return 0;
  std::vector<double> v = xs_;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Samples::Sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

double Samples::Mean() const {
  return xs_.empty() ? 0 : Sum() / static_cast<double>(xs_.size());
}

// ---- Report -----------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0;
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = {value, unit};
}

void Report::AddPercentile(const std::string& name, const Samples& s, double p,
                           const std::string& unit) {
  if (!s.Supports(p)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples cannot support p%g (need 10 beyond it)",
                  name.c_str(), s.size(), p * 100);
    Fail(buf);
  }
  Add(name, s.Percentile(p), unit);
}

void Report::Fail(const std::string& why) { problems_.push_back(why); }

std::string Report::Json(uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

std::string Report::Table() const {
  std::string out;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-36s %14.4f %s\n", name.c_str(),
                  e.value, e.unit.c_str());
    out += buf;
  }
  return out;
}

// ---- Spans ------------------------------------------------------------------

namespace {

struct SpanRec {
  uint64_t id;
  uint64_t parent;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

std::atomic<bool> g_trace_on{false};
std::atomic<uint64_t> g_next_span{1};
std::mutex g_buffers_mu;
/// Every thread's buffer; owned here so buffers outlive their threads.
std::vector<std::unique_ptr<std::vector<SpanRec>>>& Buffers() {
  static auto* b = new std::vector<std::unique_ptr<std::vector<SpanRec>>>();
  return *b;
}

std::vector<SpanRec>* ThreadBuffer() {
  thread_local std::vector<SpanRec>* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<std::vector<SpanRec>>();
    owned->reserve(4096);
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(owned));
  }
  return buf;
}

thread_local uint64_t t_current = 0;

}  // namespace

void Tracer::Enable(bool on) { g_trace_on.store(on); }
bool Tracer::enabled() { return g_trace_on.load(std::memory_order_relaxed); }
uint64_t Tracer::Current() { return t_current; }

uint64_t Tracer::Count() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t n = 0;
  for (const auto& b : Buffers()) n += b->size();
  return n;
}

std::map<std::string, Tracer::Layer> Tracer::WriteAndSummarize(
    const std::string& path) {
  std::vector<SpanRec> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& b : Buffers()) all.insert(all.end(), b->begin(), b->end());
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (const SpanRec& s : all) {
      std::fprintf(f, "%llu\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    std::fclose(f);
  }
  // Self time: a span's duration minus the union of its children's
  // intervals (clipped to the span), so parallel children count once.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const SpanRec& s : all) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, Layer> out;
  for (const SpanRec& s : all) {
    const uint64_t dur = s.end_ns - s.start_ns;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    Layer& l = out[s.name];
    l.spans += 1;
    l.total_ms += static_cast<double>(dur) / 1e6;
    l.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

Span::Span(const char* name, uint64_t parent)
    : name_(name), start_ns_(NowNs()) {
  if (!Tracer::enabled()) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent == ~0ull ? t_current : parent;
  prev_current_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  ThreadBuffer()->push_back({id_, parent_, name_, start_ns_, NowNs()});
  t_current = prev_current_;
}

double Span::ElapsedMs() const {
  return static_cast<double>(NowNs() - start_ns_) / 1e6;
}

}  // namespace fleetbench
