#pragma once

// Seeded workload generator for the fleet benchmark.
//
// The generator is a pure function of (workload, seed, seconds, corpus).
// The homes are fixed per workload; the seed draws the traffic:
// arrivals, home choice, event contents and rule churn. Every choice comes
// from the generator's own SplitMix64 streams, and it never looks at
// anything the program under test computes, so one seed always yields the
// byte-identical operation stream (see gen_test.cc). The program sees only
// the generated homes and operations.
//
// Homes name rules by corpus index; the harness materializes them with the
// ids the generator assigned. Every operation carries the time it is due
// (seconds after the timed phase starts) and, for wire workloads, the
// client connection it rides — a home always rides the same connection,
// so its operations reach the server in stream order.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/event_log.h"
#include "rules/corpus.h"
#include "rules/rule.h"

namespace fleetbench {

namespace graph = glint::graph;
namespace rules = glint::rules;

/// The rule corpus every workload draws from (fixed seed, 1,000 rules).
rules::CorpusConfig BenchCorpus();

enum class Workload : uint8_t { kServeZipf, kIngestDurable, kAuditSweep };

/// "serve_zipf" / "ingest_durable" / "audit_sweep".
const char* WorkloadName(Workload w);
/// False when `name` names no workload.
bool ParseWorkload(const std::string& name, Workload* w);

/// The declared shape of one workload (what the generator promises and
/// the generator test checks).
struct WorkloadParams {
  int homes = 1000;
  int min_rules = 4;
  int max_rules = 24;
  /// Zipf exponent of applet popularity when drawing a home's rules;
  /// 0 = uniform over the corpus.
  double applet_zipf = 0;
  /// Zipf exponent of home choice per event batch or inspection (rule
  /// changes pick homes uniformly); 0 = uniform.
  double home_zipf = 0;
  /// When > 0, inspections probe only the first `probe_homes` homes
  /// (uniformly), so their verdicts stay cached and an inspection measures
  /// the wait behind the writes queued on its shard, not the model.
  int probe_homes = 0;
  /// Open-loop wire workloads: operations per second by kind.
  double batch_rate = 0;    ///< kEventBatch frames per second
  double inspect_rate = 0;  ///< kInspect requests per second
  double rule_rate = 0;     ///< kAddRule + kRemoveRule per second
  int batch_events = 8;     ///< events per kEventBatch frame
  int connections = 4;      ///< client connections (<= nproc)
  /// Open-loop warm-up before the measured `seconds`: verdict caches of hot
  /// homes fill, and replies to operations due in it are checked but not
  /// timed.
  double warmup_s = 3;
  /// Virtual clock: event hours advanced per second of schedule.
  double hours_per_second = 0.5;
  /// audit_sweep: events per rule in each fresh event round.
  int round_events_per_rule = 2;
  /// Wire workloads: fresh event rounds swept (InspectAll) after serving.
  int epilogue_sweeps = 1;
  /// Serve from WAL shards (the other workloads serve in memory and are
  /// copied into a durable fleet only for the restart at the end).
  bool durable = false;
  /// Per-shard snapshot cadence of the durable fleet (0 = WAL only).
  uint64_t snapshot_every_ops = 0;
};

WorkloadParams ParamsFor(Workload w);

/// Home h has popularity rank h (home 0 is the hottest under home_zipf).
/// Homes are the same for every seed; the seed draws the traffic.
struct HomeSpec {
  std::string id;
  std::vector<int> rules;     ///< corpus indices
  std::vector<int> rule_ids;  ///< id each deployed rule gets in this home
};

enum class OpKind : uint8_t { kEventBatch, kInspect, kAddRule, kRemoveRule };

struct Op {
  double due_s = 0;
  int conn = 0;
  int home = 0;
  OpKind kind = OpKind::kEventBatch;
  double now_hours = 0;               ///< kInspect
  std::vector<graph::Event> events;   ///< kEventBatch
  int corpus_rule = -1;               ///< kAddRule
  int rule_id = 0;                    ///< kAddRule (new id) / kRemoveRule
};

struct Stream {
  Workload workload = Workload::kServeZipf;
  uint64_t seed = 0;
  std::vector<HomeSpec> homes;
  /// Open-loop schedule (wire workloads), sorted by due time.
  std::vector<Op> ops;
  /// Hours at which the timed phase starts (events before it come from
  /// the priming round).
  double start_hours = 0;
};

/// Generates the homes and the schedule of `w`: warmup_s of warm-up, then
/// `seconds` of measured traffic.
Stream Generate(Workload w, uint64_t seed, double seconds,
                const std::vector<rules::Rule>& corpus);

/// Round number of the priming round every home gets during set-up.
constexpr uint64_t kPrimingRound = 0;

/// Event round `round` of home `home` (the priming round, audit_sweep's
/// rounds, the epilogue rounds): `events_per_rule` trigger-or-effect
/// events per deployed rule at strictly increasing times from
/// `base_hours`, drawn from the stream's seed.
std::vector<graph::Event> EventRound(const Stream& s, size_t home,
                                     uint64_t round, int events_per_rule,
                                     double base_hours,
                                     const std::vector<rules::Rule>& corpus);

/// Byte encoding of the whole stream (the determinism proof compares it).
std::vector<char> Serialize(const Stream& s);

/// Rule `corpus_index` of the corpus with the id it has inside a home.
rules::Rule RuleWithId(const std::vector<rules::Rule>& corpus,
                       int corpus_index, int id);

/// The rules `home` deploys at registration, with their ids.
std::vector<rules::Rule> HomeRules(const HomeSpec& home,
                                   const std::vector<rules::Rule>& corpus);

/// SplitMix64 finalizer of (a, b): the generator's seed mixer.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace fleetbench
