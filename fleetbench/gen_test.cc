// Tests of the benchmark's own generator: one seed gives a byte-identical
// operation stream, and every workload has the properties it declares.
//
//   fleetbench_gen_test   (exit code 0 = pass; ctest runs it)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen.h"
#include "rules/corpus.h"

namespace fleetbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

std::string Fmt(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

void CheckWorkload(Workload w, const std::vector<rules::Rule>& corpus) {
  const std::string name = WorkloadName(w);
  const WorkloadParams p = ParamsFor(w);
  const double seconds = 10;
  const Stream a = Generate(w, 7, seconds, corpus);
  const Stream b = Generate(w, 7, seconds, corpus);
  const Stream c = Generate(w, 8, seconds, corpus);
  Expect(Serialize(a) == Serialize(b), name + ": same seed, identical bytes");
  Expect(Serialize(a) != Serialize(c), name + ": another seed, other bytes");
  bool same_homes = a.homes.size() == c.homes.size();
  for (size_t h = 0; same_homes && h < a.homes.size(); ++h) {
    same_homes = a.homes[h].rules == c.homes[h].rules;
  }
  Expect(same_homes, name + ": the homes are fixed across seeds");
  // Event rounds: the same per seed, different across seeds.
  auto rounds = [&](const Stream& s) {
    Stream r;
    for (uint64_t k = 0; k < 3; ++k) {
      for (size_t h = 0; h < s.homes.size(); h += 97) {
        Op op;
        op.events = EventRound(s, h, k, 2, 5.0 + k, corpus);
        r.ops.push_back(op);
      }
    }
    return Serialize(r);
  };
  Expect(rounds(a) == rounds(b), name + ": same seed, identical event rounds");
  Expect(rounds(a) != rounds(c), name + ": another seed, other event rounds");

  // Homes: declared count, distinct rules, declared size range and mean.
  Expect(static_cast<int>(a.homes.size()) == p.homes, name + ": home count");
  double rules_total = 0;
  bool sizes_ok = true;
  for (const HomeSpec& h : a.homes) {
    std::set<int> distinct(h.rules.begin(), h.rules.end());
    const int n = static_cast<int>(h.rules.size());
    sizes_ok = sizes_ok && distinct.size() == h.rules.size() &&
               n >= p.min_rules && n <= p.max_rules;
    rules_total += n;
  }
  Expect(sizes_ok, name + ": distinct rules within the declared size range");
  const double mean_rules = rules_total / static_cast<double>(a.homes.size());
  Expect(Near(mean_rules, (p.min_rules + p.max_rules) / 2.0, 0.08),
         name + Fmt(": mean rules per home %.2f (declared %.1f)", mean_rules,
                    (p.min_rules + p.max_rules) / 2.0));

  const double total_rate = p.batch_rate + p.inspect_rate + p.rule_rate;
  if (total_rate == 0) {
    Expect(a.ops.empty(), name + ": closed loop has no schedule");
    return;
  }
  // Mix: operation count and kind shares match the declared rates.
  std::map<OpKind, double> kinds;
  std::vector<double> per_home(a.homes.size(), 0);
  for (const Op& op : a.ops) {
    kinds[op.kind] += 1;
    per_home[static_cast<size_t>(op.home)] += 1;
  }
  const double n = static_cast<double>(a.ops.size());
  const double span = p.warmup_s + seconds;
  Expect(Near(n, total_rate * span, 0.05),
         name + Fmt(": %.0f ops (declared %.0f)", n, total_rate * span));
  Expect(Near(kinds[OpKind::kInspect] / n, p.inspect_rate / total_rate, 0.15),
         name + Fmt(": inspect share %.4f (declared %.4f)",
                    kinds[OpKind::kInspect] / n, p.inspect_rate / total_rate));
  const double rule_share =
      (kinds[OpKind::kAddRule] + kinds[OpKind::kRemoveRule]) / n;
  Expect(p.rule_rate == 0 ? rule_share == 0
                          : Near(rule_share, p.rule_rate / total_rate, 0.3),
         name + Fmt(": rule-change share %.4f (declared %.4f)", rule_share,
                    p.rule_rate / total_rate));
  if (p.home_zipf > 0) {
    std::sort(per_home.rbegin(), per_home.rend());
    double hot = 0;
    for (size_t i = 0; i < per_home.size() / 100; ++i) hot += per_home[i];
    Expect(hot / n > 0.4 && hot / n < 0.6,
           name + Fmt(": hottest 1%% of homes draw %.3f of the traffic "
                      "(declared ~%.1f)", hot / n, 0.5));
  }

  // Per-home stream invariants the server and the oracle rely on.
  bool one_conn = true, monotone = true, removes_live = true, sizes = true,
       sorted = true, probes = true;
  std::vector<int> conn(a.homes.size(), -1);
  std::vector<double> last_t(a.homes.size(), a.start_hours);
  std::vector<std::vector<int>> ids(a.homes.size());
  for (size_t h = 0; h < a.homes.size(); ++h) ids[h] = a.homes[h].rule_ids;
  double last_due = 0;
  for (const Op& op : a.ops) {
    const size_t h = static_cast<size_t>(op.home);
    sorted = sorted && op.due_s >= last_due && op.due_s < span;
    last_due = op.due_s;
    if (conn[h] == -1) conn[h] = op.conn;
    one_conn = one_conn && conn[h] == op.conn && op.conn < p.connections;
    if (op.kind == OpKind::kInspect) {
      probes = probes && (p.probe_homes == 0 || op.home < p.probe_homes);
      monotone = monotone && op.now_hours >= last_t[h];
      last_t[h] = op.now_hours;
    } else if (op.kind == OpKind::kEventBatch) {
      for (const auto& e : op.events) {
        monotone = monotone && e.time_hours >= last_t[h];
        last_t[h] = e.time_hours;
      }
    } else if (op.kind == OpKind::kAddRule) {
      ids[h].push_back(op.rule_id);
    } else {
      auto it = std::find(ids[h].begin(), ids[h].end(), op.rule_id);
      removes_live = removes_live && it != ids[h].end();
      if (it != ids[h].end()) ids[h].erase(it);
    }
    const int sz = static_cast<int>(ids[h].size());
    sizes = sizes && sz >= p.min_rules && sz <= p.max_rules;
  }
  Expect(sorted, name + ": schedule sorted by due time within the run");
  Expect(one_conn, name + ": every home rides one connection");
  Expect(monotone, name + ": per-home event and inspect times never go back");
  Expect(removes_live, name + ": every removal names a deployed rule");
  Expect(sizes, name + ": homes stay within the declared size range");
  Expect(probes, name + ": inspections stay on the declared probe homes");
}

}  // namespace
}  // namespace fleetbench

int main() {
  using namespace fleetbench;
  const std::vector<glint::rules::Rule> corpus =
      glint::rules::CorpusGenerator(BenchCorpus()).Generate();
  for (Workload w : {Workload::kServeZipf, Workload::kIngestDurable,
                     Workload::kAuditSweep}) {
    CheckWorkload(w, corpus);
  }
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
