#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fleetbench {
namespace {

/// SplitMix64: the generator's own stream, independent of glint::Rng.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  /// Exponential inter-arrival gap of a Poisson process at `rate` per unit.
  double Gap(double rate) { return -std::log(1.0 - Uniform()) / rate; }

 private:
  uint64_t s_;
};

/// Rank sampler: rank r (0-based) has weight (r+1)^-s; s == 0 is uniform.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double acc = 0;
    for (int r = 0; r < n; ++r) {
      acc += s == 0 ? 1.0 : std::pow(r + 1.0, -s);
      cdf_[static_cast<size_t>(r)] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  int Sample(SplitMix* rng) const {
    const double u = rng->Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<int>(it - cdf_.begin()),
                    static_cast<int>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Seeded permutation of [0, n): which item holds popularity rank r.
std::vector<int> Permutation(int n, SplitMix* rng) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(rng->Below(i + 1))]);
  }
  return p;
}

/// A trigger or an effect observation of `r` at `t`.
graph::Event EventFor(const rules::Rule& r, bool effect, double t) {
  graph::Event e;
  e.time_hours = t;
  e.location = r.location;
  e.platform = r.platform;
  if (effect && !r.actions.empty()) {
    e.device = r.actions[0].device;
    e.state = rules::CommandResultState(r.actions[0].command);
  } else {
    e.device = r.trigger.device;
    e.state = r.trigger.state;
  }
  return e;
}

constexpr double kEventStepHours = 1e-5;
constexpr uint64_t kPopulationSeed = 0x686f6d6573ull;

template <typename T>
void Put(std::vector<char>* out, T v) {
  char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  out->insert(out->end(), b, b + sizeof(T));
}
void PutStr(std::vector<char>* out, const std::string& s) {
  Put<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}
void PutEvent(std::vector<char>* out, const graph::Event& e) {
  Put(out, e.time_hours);
  Put<int32_t>(out, static_cast<int32_t>(e.device));
  Put<int32_t>(out, static_cast<int32_t>(e.location));
  PutStr(out, e.state);
  Put<int32_t>(out, static_cast<int32_t>(e.platform));
  Put<int32_t>(out, e.source_rule_id);
}

}  // namespace

rules::CorpusConfig BenchCorpus() {
  rules::CorpusConfig c;
  c.ifttt = 500;
  c.smartthings = 100;
  c.alexa = 150;
  c.google_assistant = 125;
  c.home_assistant = 125;
  c.seed = 4242;
  return c;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeZipf: return "serve_zipf";
    case Workload::kIngestDurable: return "ingest_durable";
    case Workload::kAuditSweep: return "audit_sweep";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* w) {
  for (Workload c : {Workload::kServeZipf, Workload::kIngestDurable,
                     Workload::kAuditSweep}) {
    if (name == WorkloadName(c)) {
      *w = c;
      return true;
    }
  }
  return false;
}

WorkloadParams ParamsFor(Workload w) {
  WorkloadParams p;
  switch (w) {
    case Workload::kServeZipf:
      p.homes = 1000;
      p.min_rules = 4;
      p.max_rules = 24;
      p.applet_zipf = 1.0;
      p.home_zipf = 1.12;  // hot 1% of homes draw ~half of the traffic
      p.batch_rate = 1200;
      p.inspect_rate = 60;
      p.rule_rate = 12;
      p.batch_events = 8;
      p.hours_per_second = 0.25;
      // Acks queue behind inspections on their connection. One connection
      // keeps that share of acks far above 1% on fast and slow hosts alike,
      // so the ack p99 never sits on the knee between the two modes.
      p.connections = 1;
      break;
    case Workload::kIngestDurable:
      p.homes = 1000;
      p.min_rules = 2;
      p.max_rules = 6;
      p.batch_rate = 3000;
      p.inspect_rate = 80;
      p.rule_rate = 0;
      p.batch_events = 40;
      p.probe_homes = 50;
      p.hours_per_second = 2.0;
      p.epilogue_sweeps = 4;
      p.durable = true;
      p.snapshot_every_ops = 100000;
      break;
    case Workload::kAuditSweep:
      p.homes = 600;
      p.min_rules = 4;
      p.max_rules = 24;
      break;
  }
  return p;
}

rules::Rule RuleWithId(const std::vector<rules::Rule>& corpus,
                       int corpus_index, int id) {
  rules::Rule r = corpus[static_cast<size_t>(corpus_index)];
  r.id = id;
  return r;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix m(a ^ (b * 0xd1b54a32d192ed03ull));
  return m.Next();
}

std::vector<rules::Rule> HomeRules(const HomeSpec& home,
                                   const std::vector<rules::Rule>& corpus) {
  std::vector<rules::Rule> rs;
  for (size_t i = 0; i < home.rules.size(); ++i) {
    rs.push_back(RuleWithId(corpus, home.rules[i], home.rule_ids[i]));
  }
  return rs;
}

std::vector<graph::Event> EventRound(const Stream& s, size_t home_index,
                                     uint64_t round, int events_per_rule,
                                     double base_hours,
                                     const std::vector<rules::Rule>& corpus) {
  const HomeSpec& home = s.homes[home_index];
  SplitMix rng(Mix(Mix(s.seed, round), home_index));
  std::vector<graph::Event> out;
  const int n = static_cast<int>(home.rules.size()) * events_per_rule;
  out.reserve(static_cast<size_t>(n));
  double t = base_hours;
  for (int i = 0; i < n; ++i) {
    const int ci = home.rules[static_cast<size_t>(rng.Below(
        static_cast<int>(home.rules.size())))];
    t += kEventStepHours;
    out.push_back(EventFor(corpus[static_cast<size_t>(ci)],
                           (rng.Next() & 1) != 0, t));
  }
  return out;
}

Stream Generate(Workload w, uint64_t seed, double seconds,
                const std::vector<rules::Rule>& corpus) {
  const WorkloadParams p = ParamsFor(w);
  Stream s;
  s.workload = w;
  s.seed = seed;
  const int nc = static_cast<int>(corpus.size());

  // ---- Homes: rules by (Zipf) applet popularity, distinct within a home.
  // The population is part of the workload's definition: it comes from a
  // fixed stream, and the seed draws the traffic. A seed-drawn population
  // would let a few popular applets swing whole-fleet figures between
  // seeds.
  SplitMix pop(Mix(kPopulationSeed, static_cast<uint64_t>(w) + 1));
  const std::vector<int> applet_rank = Permutation(nc, &pop);
  const Zipf applets(nc, p.applet_zipf);
  auto draw_applet = [&](SplitMix* r) {
    return applet_rank[static_cast<size_t>(applets.Sample(r))];
  };
  s.homes.resize(static_cast<size_t>(p.homes));
  for (int h = 0; h < p.homes; ++h) {
    HomeSpec& home = s.homes[static_cast<size_t>(h)];
    char id[32];
    std::snprintf(id, sizeof id, "home-%05d", h);
    home.id = id;
    // Sizes follow a golden-ratio sequence over the popularity rank, so
    // every seed serves the same size mix at every rank and only the rules
    // themselves vary.
    const double frac = std::fmod((h + 1) * 0.6180339887498949, 1.0);
    const int n = p.min_rules +
                  static_cast<int>(frac * (p.max_rules - p.min_rules + 1));
    while (static_cast<int>(home.rules.size()) < n) {
      const int ci = draw_applet(&pop);
      if (std::find(home.rules.begin(), home.rules.end(), ci) ==
          home.rules.end()) {
        home.rules.push_back(ci);
        home.rule_ids.push_back(static_cast<int>(home.rules.size()));
      }
    }
  }
  // The priming round puts every home's first events before the timed
  // phase, so early inspections already see live edges.
  s.start_hours = 2.0;
  if (p.batch_rate + p.inspect_rate + p.rule_rate <= 0) return s;

  // ---- Open-loop schedule: one Poisson process, kind by rate share.
  SplitMix rng(Mix(seed, static_cast<uint64_t>(w) + 1));
  const Zipf home_pick(p.homes, p.home_zipf);
  struct Live {
    std::vector<int> rules;  // corpus indices, deployed now
    std::vector<int> ids;
    int next_id = 0;
    double last_t = 0;
  };
  std::vector<Live> live(static_cast<size_t>(p.homes));
  for (int h = 0; h < p.homes; ++h) {
    const HomeSpec& home = s.homes[static_cast<size_t>(h)];
    Live& l = live[static_cast<size_t>(h)];
    l.rules = home.rules;
    l.ids = home.rule_ids;
    l.next_id = static_cast<int>(home.rules.size()) + 1;
    l.last_t = s.start_hours;
  }
  const double total = p.batch_rate + p.inspect_rate + p.rule_rate;
  double t = 0;
  while (true) {
    t += rng.Gap(total);
    if (t >= p.warmup_s + seconds) break;
    Op op;
    op.due_s = t;
    const double u = rng.Uniform() * total;
    const bool inspect = u < p.inspect_rate;
    const bool rule_change = !inspect && u < p.inspect_rate + p.rule_rate;
    // Home h has popularity rank h. Rule changes are edits by the homes'
    // owners, uniform over homes; traffic follows home popularity.
    op.home = rule_change                        ? rng.Below(p.homes)
              : inspect && p.probe_homes > 0 ? rng.Below(p.probe_homes)
                                             : home_pick.Sample(&rng);
    op.conn = op.home % p.connections;
    Live& l = live[static_cast<size_t>(op.home)];
    const double hours = s.start_hours + t * p.hours_per_second;
    if (inspect) {
      op.kind = OpKind::kInspect;
      op.now_hours = std::max(hours, l.last_t);
      l.last_t = op.now_hours;
    } else if (rule_change) {
      const bool add = static_cast<int>(l.rules.size()) < p.max_rules &&
                       (static_cast<int>(l.rules.size()) <= p.min_rules ||
                        (rng.Next() & 1) != 0);
      if (add) {
        int ci = draw_applet(&rng);
        while (std::find(l.rules.begin(), l.rules.end(), ci) != l.rules.end()) {
          ci = draw_applet(&rng);
        }
        op.kind = OpKind::kAddRule;
        op.corpus_rule = ci;
        op.rule_id = l.next_id++;
        l.rules.push_back(ci);
        l.ids.push_back(op.rule_id);
      } else {
        const size_t victim =
            static_cast<size_t>(rng.Below(static_cast<int>(l.rules.size())));
        op.kind = OpKind::kRemoveRule;
        op.rule_id = l.ids[victim];
        l.rules.erase(l.rules.begin() + static_cast<std::ptrdiff_t>(victim));
        l.ids.erase(l.ids.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    } else {
      op.kind = OpKind::kEventBatch;
      double et = std::max(hours, l.last_t);
      for (int i = 0; i < p.batch_events; ++i) {
        const int ci = l.rules[static_cast<size_t>(
            rng.Below(static_cast<int>(l.rules.size())))];
        et += kEventStepHours;
        op.events.push_back(EventFor(corpus[static_cast<size_t>(ci)],
                                     (rng.Next() & 1) != 0, et));
      }
      l.last_t = et;
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

std::vector<char> Serialize(const Stream& s) {
  std::vector<char> out;
  Put<uint8_t>(&out, static_cast<uint8_t>(s.workload));
  Put(&out, s.seed);
  Put(&out, s.start_hours);
  Put<uint32_t>(&out, static_cast<uint32_t>(s.homes.size()));
  for (const HomeSpec& h : s.homes) {
    PutStr(&out, h.id);
    Put<uint32_t>(&out, static_cast<uint32_t>(h.rules.size()));
    for (size_t i = 0; i < h.rules.size(); ++i) {
      Put<int32_t>(&out, h.rules[i]);
      Put<int32_t>(&out, h.rule_ids[i]);
    }
  }
  Put<uint32_t>(&out, static_cast<uint32_t>(s.ops.size()));
  for (const Op& op : s.ops) {
    Put(&out, op.due_s);
    Put<int32_t>(&out, op.conn);
    Put<int32_t>(&out, op.home);
    Put<uint8_t>(&out, static_cast<uint8_t>(op.kind));
    Put(&out, op.now_hours);
    Put<uint32_t>(&out, static_cast<uint32_t>(op.events.size()));
    for (const graph::Event& e : op.events) PutEvent(&out, e);
    Put<int32_t>(&out, op.corpus_rule);
    Put<int32_t>(&out, op.rule_id);
  }
  return out;
}

}  // namespace fleetbench
