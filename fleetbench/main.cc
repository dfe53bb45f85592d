// fleetbench — the fleet benchmark.
//
//   fleetbench --workload serve_zipf|ingest_durable|audit_sweep --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// Trains a detector from a fixed seed, registers the workload's generated
// homes on a 4-shard ShardedFleet (durable for ingest_durable), primes
// them with one event round, then measures for S seconds:
//
//   serve_zipf      open-loop Zipf traffic over loopback TCP (FleetServer,
//                   wire protocol), mostly kEventBatch, some kInspect and
//                   kAddRule/kRemoveRule;
//   ingest_durable  open-loop, write-heavy wire traffic over uniform small
//                   homes onto WAL + snapshot shards, low-rate kInspect;
//   audit_sweep     closed-loop in-process audit: fresh event rounds, each
//                   followed by ShardedFleet::InspectAll or a per-home
//                   TryInspect pass.
//
// The wire workloads then sweep the fleet (InspectAll). Every workload
// scores its swept verdicts against graph::ThreatAnalyzer labels, checks
// its answers against an in-process ServingEngine oracle, and restarts the
// fleet from a state directory. The last stdout line is one JSON object: the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1), the attempted
// and failed operation counts, and whether every correctness gate held.
// The exit code is 0 only when they did.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/explain.h"
#include "core/serving.h"
#include "fleet/server.h"
#include "fleet/sharding.h"
#include "fleet/wire.h"
#include "gen.h"
#include "gnn/kernels.h"
#include "gnn/trainer.h"
#include "graph/threat_analyzer.h"
#include "harness.h"
#include "obs/registry.h"
#include "util/binio.h"
#include "util/thread_pool.h"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fleetbench {
namespace {

namespace fs = std::filesystem;
using glint::core::ThreatWarning;
using glint::fleet::ShardedFleet;
namespace wire = glint::fleet::wire;
namespace core = glint::core;
namespace gnn = glint::gnn;

constexpr int kShards = 4;
constexpr int kSweepBatch = 64;
/// The run is invalid when the generator sent its schedule slower than
/// this share of the declared rate.
constexpr double kRateFloor = 0.95;
/// audit_sweep: homes whose answers are replayed on the oracle.
constexpr int kOracleSample = 16;

core::TrainedDetector::Options DetectorOptions() {
  core::TrainedDetector::Options o;
  o.corpus = BenchCorpus();
  o.num_training_graphs = 60;
  int max_rules = 0;
  for (Workload w : {Workload::kServeZipf, Workload::kIngestDurable,
                     Workload::kAuditSweep}) {
    max_rules = std::max(max_rules, ParamsFor(w).max_rules);
  }
  o.builder.max_nodes = max_rules;  // covers the largest served home
  o.model.num_scales = 2;
  o.model.embed_dim = 32;
  o.train.epochs = 3;
  o.pairs.num_positive = 60;
  o.pairs.num_negative = 90;
  return o;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t Counter(const char* name) {
  return glint::obs::Registry::Global().GetCounter(name)->Value();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  }
  return n;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Stage-by-stage replay of one inspection through the public model API,
/// composing the warning exactly as TrainedDetector::Analyze does.
ThreatWarning StageReplay(const core::DeploymentSession& s, double now) {
  const core::TrainedDetector& det = s.detector();
  Span replay("inspect.replay");
  graph::InteractionGraph g;
  {
    Span sp("graph.materialize");
    g = s.live().MaterializeRealTime(now);
  }
  gnn::GnnGraph gg;
  {
    Span sp("gnn.tensorize");
    gg = gnn::ToGnnGraph(g);
  }
  ThreatWarning w;
  {
    Span sp("gnn.drift");
    glint::FloatVec z = gnn::Trainer::Embed(det.contrastive(), gg);
    w.drifting = det.drift_detector().IsDrifting(z);
  }
  gnn::ScopedTape tape;
  {
    Span sp("gnn.classify");
    tape->set_freeze_leaves(true);
    auto r = det.classifier()->Forward(tape.get(), gg);
    double p[2];
    gnn::SoftmaxRowInto(r.logits, p);
    w.confidence = p[1];
    w.threat = p[1] > 0.5;
  }
  if (w.threat) {
    Span sp("explain.nodes");
    auto importance = core::ExplainNodes(det.classifier(), gg);
    for (int v : core::TopCulprits(importance, 3)) {
      const auto& node = g.nodes()[static_cast<size_t>(v)];
      w.culprits.push_back({v, rules::PlatformName(node.rule.platform),
                            node.rule.text,
                            importance[static_cast<size_t>(v)]});
    }
    w.types = g.threat_types();
  }
  return w;
}

// ---- One benchmark run ------------------------------------------------------

struct Outcome {
  int32_t code = -1;  ///< -1: no reply
  bool degraded = false;
  bool threat = false;
  double confidence = 0;
  double latency_ms = 0;
  std::string rendered;
};

class Bench {
 public:
  Bench(Workload w, uint64_t seed, double seconds, bool trace,
        std::string out_dir)
      : w_(w), p_(ParamsFor(w)), seed_(seed), seconds_(seconds),
        trace_(trace), out_dir_(std::move(out_dir)) {}

  int Run();

 private:
  // Set-up.
  void Train();
  void OpenFleet();
  std::unique_ptr<ShardedFleet> OpenDurable();
  void RegisterAndPrime();
  std::vector<std::vector<int>> HomesByShard() const;
  // Timed phases.
  void RunWire();
  void RunAudit();
  void EventRoundInProcess(int round, double base_hours, Samples* ack_ms);
  // Epilogue.
  glint::fleet::FleetWarnings Sweep(double now);
  void Score(double now, const glint::fleet::FleetWarnings& all);
  void CheckWireAgainstOracle();
  bool OracleAddHome(core::ServingEngine* oracle, size_t h);
  void RestartAndCompare();
  void TracedProbes();
  void TakeStatsAfter();
  void ReportLayers();
  std::map<std::string, uint64_t> StateFingerprints() const;
  void Gate(bool ok, const std::string& why) {
    if (!ok) e2e_.Fail(why);
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layers_.Add(name, v, unit);
  }

  const Workload w_;
  const WorkloadParams p_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string out_dir_;

  Report e2e_;
  Report layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  std::unique_ptr<core::TrainedDetector> det_;
  const std::vector<rules::Rule>* corpus_ = nullptr;
  Stream stream_;
  glint::fleet::FleetConfig fcfg_;  ///< the serving fleet's config
  std::string state_dir_;
  std::unique_ptr<ShardedFleet> fleet_;
  std::vector<Outcome> outcomes_;
  double end_hours_ = 0;

  // Measurements shared across phases.
  double train_s_ = 0;
  Samples inspect_ms_, ack_ms_, sweep_hps_;
  Samples inspect_traced_ms_, inspect_untraced_ms_;
  Samples add_home_ms_, on_event_us_, shard_wait_ms_, sched_lag_ms_;
  Samples sweep_1t_hps_;
  double achieved_ratio_ = 1;
  double frame_bytes_ = 0, frame_events_ = 0;
  double drain_ms_ = 0;
  uint64_t queue_hw_ = 0, rejected_ = 0, overload_shed_ = 0,
           deadline_shed_ = 0;
  double events_max_over_mean_ = 0;
  double journal_append_us_ = 0, decode_us_ = 0;
  core::DeploymentSession::CacheStats stats_before_, stats_after_;
  uint64_t corr_calls_ = 0, corr_misses_ = 0, node_calls_ = 0;
  double corr_ms_ = 0, node_ms_ = 0;
  uint64_t node_lookups_ = 0, node_memo_hits_ = 0;
  uint64_t threats_ = 0, swept_ = 0;
  uint64_t tp_ = 0, fp_ = 0, fn_ = 0;  ///< verdicts vs labels, all sweeps
  uint64_t replays_ = 0, replay_mismatches_ = 0;
};

int Bench::Run() {
  Tracer::Enable(trace_);
  std::error_code ec;
  fs::create_directories(out_dir_, ec);
  const auto t_setup = Clock::now();
  Train();
  stream_ = Generate(w_, seed_, seconds_, *corpus_);
  const long rss0 = RssKib();
  OpenFleet();
  RegisterAndPrime();
  const double setup_s = SecondsSince(t_setup);
  const long rss1 = RssKib();
  stats_before_ = fleet_->AggregateStats();

  if (w_ == Workload::kAuditSweep) {
    RunAudit();
  } else {
    RunWire();
    TakeStatsAfter();
    CheckWireAgainstOracle();
    // Audit after serving: fresh event rounds, each swept and scored.
    for (int r = 0; r < p_.epilogue_sweeps; ++r) {
      const double base = end_hours_ + 4.0 * (r + 1);
      EventRoundInProcess(1000 + r, base, nullptr);
      (void)Sweep(base + 0.5);
    }
  }
  RestartAndCompare();
  if (trace_) TracedProbes();

  e2e_.Add("setup_s", setup_s, "s");
  e2e_.AddPercentile("inspect_p50_ms", inspect_ms_, 0.50, "ms");
  // The p99s are per-layer figures: on ingest_durable they ride on rare
  // WAL, snapshot and host stalls and moved by 60-130% between runs.
  layers_.AddPercentile("inspect.p99_ms", inspect_ms_, 0.99, "ms");
  e2e_.AddPercentile("ingest_ack_p50_ms", ack_ms_, 0.50, "ms");
  layers_.AddPercentile("ingest_ack.p99_ms", ack_ms_, 0.99, "ms");
  Gate(sweep_hps_.size() > 0, "no sweep completed");
  e2e_.Add("sweep_homes_per_s", sweep_hps_.Percentile(0.5), "homes/s");
  const double f1 = Ratio(2.0 * tp_, 2.0 * tp_ + fp_ + fn_);
  Gate(f1 > 0, "verdict F1 is 0");
  e2e_.Add("verdict_f1", f1, "ratio");
  e2e_.Add("rss_kib_per_home",
           static_cast<double>(rss1 - rss0) / p_.homes, "KiB");
  if (trace_) ReportLayers();

  // Host record.
  const char* threads_env = std::getenv("GLINT_THREADS");
  const auto& o = det_->options();
  std::printf(
      "HOST {\"nproc\": %u, \"kernel_backend\": \"%s\", \"GLINT_THREADS\": "
      "\"%s\", \"pool_threads\": %d, \"build_type\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"detector\": {\"corpus_rules\": %zu, \"training_graphs\": %d, "
      "\"max_nodes\": %d, \"epochs\": %d, \"embed_dim\": %d, "
      "\"num_scales\": %d, \"seed\": %llu}, \"shards\": %d, \"homes\": %d}\n",
      std::thread::hardware_concurrency(), gnn::kernels::BackendName(),
      threads_env ? threads_env : "unset", glint::ThreadPool::Global().threads(),
      FLEETBENCH_BUILD_TYPE, WorkloadName(w_),
      static_cast<unsigned long long>(seed_), seconds_, trace_ ? 1 : 0,
      corpus_->size(), o.num_training_graphs, o.builder.max_nodes,
      o.train.epochs, o.model.embed_dim, o.model.num_scales,
      static_cast<unsigned long long>(o.seed), kShards, p_.homes);
  std::printf("end-to-end:\n%s", e2e_.Table().c_str());
  if (trace_) std::printf("per-layer:\n%s", layers_.Table().c_str());
  std::vector<std::string> problems = e2e_.problems();
  for (const auto& pr : layers_.problems()) problems.push_back(pr);
  for (const auto& pr : problems) std::fprintf(stderr, "FAIL: %s\n", pr.c_str());
  Report& shown = trace_ ? layers_ : e2e_;
  for (const auto& pr : problems) shown.Fail(pr);
  std::printf("%s\n", shown.Json(attempted_, failed_).c_str());
  std::fflush(stdout);
  fleet_.reset();
  fs::remove_all(state_dir_, ec);
  return problems.empty() ? 0 : 1;
}

void Bench::Train() {
  const auto t0 = Clock::now();
  det_ = std::make_unique<core::TrainedDetector>(DetectorOptions());
  det_->TrainOffline();
  train_s_ = SecondsSince(t0);
  corpus_ = &det_->corpus();
}

/// A durable fleet (WAL, no fsync) in a fresh state directory.
std::unique_ptr<ShardedFleet> Bench::OpenDurable() {
  std::error_code ec;
  fs::remove_all(state_dir_, ec);
  glint::fleet::FleetConfig cfg = fcfg_;
  cfg.state_dir = state_dir_;
  auto fleet = std::make_unique<ShardedFleet>(det_.get(), cfg);
  const glint::Status st = fleet->Recover();
  Gate(st.ok(), "fleet Recover on a fresh state dir: " + st.ToString());
  return fleet;
}

void Bench::OpenFleet() {
  fcfg_.num_shards = kShards;
  fcfg_.engine.snapshot_every_ops = p_.snapshot_every_ops;
  fcfg_.engine.sync_each_append = false;
  state_dir_ = out_dir_ + "/state-" + WorkloadName(w_) + "-" +
               std::to_string(::getpid());
  fleet_ = p_.durable ? OpenDurable()
                      : std::make_unique<ShardedFleet>(det_.get(), fcfg_);
}

std::vector<std::vector<int>> Bench::HomesByShard() const {
  std::vector<std::vector<int>> by(kShards);
  for (size_t h = 0; h < stream_.homes.size(); ++h) {
    by[static_cast<size_t>(fleet_->ShardOf(stream_.homes[h].id))].push_back(
        static_cast<int>(h));
  }
  return by;
}

void Bench::RegisterAndPrime() {
  const auto by_shard = HomesByShard();
  const uint64_t corr_m0 = det_->correlation_cache().misses();
  const uint64_t feat_h0 = Counter("glint.graph.feature_cache.hits");
  const uint64_t feat_m0 = Counter("glint.graph.feature_cache.misses");
  const uint64_t sent_h0 = Counter("glint.nlp.sentence_cache.hits");
  std::mutex mu;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  // One registering thread per shard: shards are independent engines.
  for (int k = 0; k < kShards; ++k) {
    threads.emplace_back([&, k] {
      Samples add_ms;
      uint64_t corr_calls = 0, node_calls = 0;
      double corr_ms = 0, node_ms = 0;
      for (int h : by_shard[static_cast<size_t>(k)]) {
        const HomeSpec& home = stream_.homes[static_cast<size_t>(h)];
        const std::vector<rules::Rule> rs = HomeRules(home, *corpus_);
        Span add("session.add_home");
        if (trace_) {
          // Split registration by layer: embed every rule and evaluate
          // every ordered pair through the detector's public API first
          // (memoized, so TryAddHome then pays only the session's share).
          {
            Span sp("nlp.make_node");
            for (const auto& r : rs) (void)det_->MakeNode(r);
            node_ms += sp.ElapsedMs();
            node_calls += rs.size();
          }
          Span sp("correlation.correlated");
          for (size_t i = 0; i < rs.size(); ++i) {
            for (size_t j = 0; j < rs.size(); ++j) {
              if (i != j) (void)det_->Correlated(rs[i], rs[j]);
            }
          }
          corr_ms += sp.ElapsedMs();
          corr_calls += rs.size() * (rs.size() - 1);
        }
        if (!fleet_->TryAddHome(home.id, rs).ok()) errors.fetch_add(1);
        add_ms.Add(add.ElapsedMs());
        // Priming round: one observation per rule before the timed phase.
        const auto events = EventRound(stream_, static_cast<size_t>(h),
                                       kPrimingRound, 1, 1.0, *corpus_);
        for (const auto& e : events) {
          if (!fleet_->TryOnEvent(home.id, e).ok()) errors.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      add_home_ms_.Append(add_ms);
      corr_calls_ += corr_calls;
      corr_ms_ += corr_ms;
      node_calls_ += node_calls;
      node_ms_ += node_ms;
    });
  }
  for (auto& t : threads) t.join();
  Gate(errors.load() == 0, "registration or priming failed");
  corr_misses_ = det_->correlation_cache().misses() - corr_m0;
  // A rule embedding is served from a memo when the node-feature cache or,
  // behind it, the sentence cache holds it.
  node_lookups_ = Counter("glint.graph.feature_cache.hits") - feat_h0 +
                  Counter("glint.graph.feature_cache.misses") - feat_m0;
  node_memo_hits_ = Counter("glint.graph.feature_cache.hits") - feat_h0 +
                    Counter("glint.nlp.sentence_cache.hits") - sent_h0;
}

// ---- Wire workloads ---------------------------------------------------------

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

wire::Request RequestFor(const Op& op, const HomeSpec& home,
                         const std::vector<rules::Rule>& corpus) {
  wire::Request req;
  req.home = home.id;
  switch (op.kind) {
    case OpKind::kEventBatch:
      req.type = wire::MsgType::kEventBatch;
      req.events = op.events;
      break;
    case OpKind::kInspect:
      req.type = wire::MsgType::kInspect;
      req.now_hours = op.now_hours;
      break;
    case OpKind::kAddRule:
      req.type = wire::MsgType::kAddRule;
      req.rule = RuleWithId(corpus, op.corpus_rule, op.rule_id);
      break;
    case OpKind::kRemoveRule:
      req.type = wire::MsgType::kRemoveRule;
      req.rule_id = op.rule_id;
      break;
  }
  return req;
}

/// One full-duplex client connection: the sender thread writes frames when
/// they are due (never waiting for replies — an open loop), the receiver
/// thread matches replies to requests in FIFO order.
struct Conn {
  int fd = -1;
  std::mutex mu;
  std::condition_variable cv;
  struct InFlight {
    size_t op;
    uint64_t due_ns;
  };
  std::deque<InFlight> inflight;
  bool send_done = false;
  size_t sent = 0;
  bool io_error = false;
};

void Bench::RunWire() {
  glint::fleet::FleetServer::Config sc;
  // One threat inspection with the explainer holds a shard for tens of
  // milliseconds, which the default detector (queue-wait p99 >= 50 ms)
  // reads as overload and sheds writes for. The benchmark serves an
  // explain-heavy mix, so its shards degrade only past half a second.
  sc.bus.overload.enter_ms = 500;
  sc.bus.overload.exit_ms = 100;
  // A worker is parked on every inspection it serves; one per CPU lets each
  // client connection have its inspections served concurrently.
  sc.io_workers = p_.connections;
  glint::fleet::FleetServer server(fleet_.get(), sc);
  Gate(server.Start().ok(), "FleetServer failed to start");
  const auto& ops = stream_.ops;
  outcomes_.assign(ops.size(), Outcome{});
  std::vector<std::vector<size_t>> by_conn(static_cast<size_t>(p_.connections));
  for (size_t i = 0; i < ops.size(); ++i) {
    by_conn[static_cast<size_t>(ops[i].conn)].push_back(i);
  }
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < p_.connections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    conns.back()->fd = Dial(server.port());
    Gate(conns.back()->fd >= 0, "client connect failed");
  }
  // Per-shard home of the latest inspection sent (traced stage replays).
  std::vector<std::atomic<int>> last_inspected(kShards);
  for (auto& a : last_inspected) a.store(-1);
  std::vector<int> home_shard(stream_.homes.size());
  for (size_t h = 0; h < stream_.homes.size(); ++h) {
    home_shard[h] = fleet_->ShardOf(stream_.homes[h].id);
  }

  const uint64_t t0_ns = NowNs() + 20'000'000;  // start 20 ms from now
  const uint64_t end_ns =
      t0_ns + static_cast<uint64_t>((p_.warmup_s + seconds_) * 1e9);
  auto traced_slice = [&](uint64_t t_ns) {
    return trace_ && t_ns >= t0_ns && ((t_ns - t0_ns) / 1'000'000'000ull) % 2 == 0;
  };
  std::mutex frame_mu;
  std::vector<std::thread> threads;
  std::vector<Samples> lag(static_cast<size_t>(p_.connections));
  for (int c = 0; c < p_.connections; ++c) {
    Conn* conn = conns[static_cast<size_t>(c)].get();
    threads.emplace_back([&, c, conn] {  // sender
      double bytes = 0, events = 0;
      for (size_t i : by_conn[static_cast<size_t>(c)]) {
        const Op& op = ops[i];
        const uint64_t due = t0_ns + static_cast<uint64_t>(op.due_s * 1e9);
        const uint64_t now = NowNs();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        lag[static_cast<size_t>(c)].Add(Ms(NowNs() - std::min(NowNs(), due)));
        Span span(op.kind == OpKind::kInspect ? "wire.send_inspect"
                                              : "wire.send_mutation");
        const std::vector<char> payload = wire::EncodeRequest(RequestFor(
            op, stream_.homes[static_cast<size_t>(op.home)], *corpus_));
        if (op.kind == OpKind::kEventBatch) {
          bytes += static_cast<double>(payload.size() + 8);  // + len, crc
          events += static_cast<double>(op.events.size());
        }
        if (op.kind == OpKind::kInspect) {
          last_inspected[static_cast<size_t>(home_shard[static_cast<size_t>(op.home)])]
              .store(op.home);
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->inflight.push_back({i, due});
          ++conn->sent;
        }
        conn->cv.notify_one();
        if (!wire::SendFrame(conn->fd, payload).ok()) {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->io_error = true;
          break;
        }
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->send_done = true;
      }
      conn->cv.notify_one();
      std::lock_guard<std::mutex> lock(frame_mu);
      frame_bytes_ += bytes;
      frame_events_ += events;
    });
    threads.emplace_back([&, conn] {  // receiver
      while (true) {
        Conn::InFlight f{};
        {
          std::unique_lock<std::mutex> lock(conn->mu);
          conn->cv.wait(lock, [&] {
            return !conn->inflight.empty() || conn->send_done || conn->io_error;
          });
          if (conn->inflight.empty()) break;
          f = conn->inflight.front();
          conn->inflight.pop_front();
        }
        std::vector<char> payload;
        wire::Reply reply;
        if (!wire::RecvFrame(conn->fd, &payload).ok() ||
            !wire::DecodeReply(payload, &reply).ok()) {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->io_error = true;
          break;
        }
        const uint64_t now = NowNs();
        Outcome& out = outcomes_[f.op];
        out.code = reply.code;
        out.degraded = reply.degraded;
        out.threat = reply.threat;
        out.confidence = reply.confidence;
        out.latency_ms = Ms(now - std::min(now, f.due_ns));
        if (ops[f.op].kind == OpKind::kInspect) out.rendered = reply.rendered;
      }
    });
  }

  // Traced runs: a no-op task measures each shard's queue wait, and every
  // third probe replays the latest inspected home stage by stage on its
  // owning shard. Both run only in even seconds of the schedule, so odd
  // seconds measure the same traffic untraced (the tracing overhead).
  std::thread prober;
  if (trace_) {
    prober = std::thread([&] {
      for (uint64_t i = 0; NowNs() < end_ns; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!traced_slice(NowNs())) continue;
        const int k = static_cast<int>(i % kShards);
        const uint64_t posted = NowNs();
        uint64_t ran = 0;
        {
          Span sp("bus.shard_wait");
          if (!server.bus().RunOnShard(k, [&] { ran = NowNs(); }).ok()) continue;
        }
        shard_wait_ms_.Add(Ms(ran - posted));
        const int h = last_inspected[static_cast<size_t>(k)].load();
        if (i % 3 != 0 || h < 0) continue;
        const std::string& id = stream_.homes[static_cast<size_t>(h)].id;
        bool same = true;
        const glint::Status st = server.bus().RunOnShard(k, [&] {
          core::ServingEngine& eng = fleet_->shard(k);
          const auto& s = eng.home_view(eng.ResolveHome(id));
          const double now = s.live().latest_event_hours();
          const ThreatWarning composed = StageReplay(s, now);
          auto real = eng.TryInspect(id, now);
          same = real.ok() && Fingerprint(real.value()) == Fingerprint(composed);
        });
        if (!st.ok()) continue;
        ++replays_;
        if (!same) ++replay_mismatches_;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (prober.joinable()) prober.join();
  const uint64_t done_ns = NowNs();
  {
    Span sp("bus.drain");
    server.bus().Flush();
  }
  drain_ms_ = Ms(NowNs() - std::min(NowNs(), std::max(end_ns, done_ns)));

  // Books: every operation is attempted; each reply is OK, refused
  // (kOverloaded) or failed. An unexpected code fails the run.
  uint64_t refused = 0, failed = 0, unanswered = 0;
  for (const auto& c : conns) {
    Gate(!c->io_error, "connection I/O error");
    ::close(c->fd);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const Outcome& o = outcomes_[i];
    const uint64_t due = t0_ns + static_cast<uint64_t>(ops[i].due_s * 1e9);
    if (o.code == -1) {
      ++unanswered;
      continue;
    }
    const bool overloaded =
        o.code == static_cast<int32_t>(glint::StatusCode::kOverloaded);
    if (o.code != 0 && !overloaded) ++failed;
    if (overloaded) ++refused;
    if (ops[i].due_s < p_.warmup_s) continue;
    // A refused request misses every latency limit.
    const double lat = o.code == 0 ? o.latency_ms : 1e9;
    if (ops[i].kind == OpKind::kInspect) {
      inspect_ms_.Add(lat);
      (traced_slice(due) ? inspect_traced_ms_ : inspect_untraced_ms_).Add(lat);
    } else if (ops[i].kind == OpKind::kEventBatch) {
      ack_ms_.Add(lat);
    }
  }
  attempted_ += ops.size();
  failed_ += failed + refused + unanswered;
  std::printf("wire: %zu ops, %llu refused, %llu failed, %llu unanswered\n",
              ops.size(), static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(unanswered));
  Gate(failed == 0 && unanswered == 0, "wire operations failed");

  for (const auto& l : lag) sched_lag_ms_.Append(l);
  // Declared rate over the rate achieved: the schedule's span over the
  // span it actually took to send.
  const double planned = ops.empty() ? 0 : ops.back().due_s;
  const double lag_end = sched_lag_ms_.size() ? sched_lag_ms_.Percentile(1.0) : 0;
  achieved_ratio_ = planned > 0 ? planned / (planned + lag_end / 1e3) : 1;
  Gate(achieved_ratio_ >= kRateFloor,
       "generator fell behind its schedule (achieved rate ratio below floor)");
  end_hours_ = stream_.start_hours + (p_.warmup_s + seconds_) * p_.hours_per_second;
  for (const Op& op : ops) {
    end_hours_ = std::max(end_hours_, op.now_hours);
    if (!op.events.empty()) end_hours_ = std::max(end_hours_, op.events.back().time_hours);
  }

  auto& bus = server.bus();
  for (int k = 0; k < kShards; ++k) {
    queue_hw_ = std::max<uint64_t>(queue_hw_, bus.queue_high_water(k));
    overload_shed_ += bus.overload_shed(k);
    deadline_shed_ += bus.deadline_shed(k);
  }
  rejected_ = bus.rejected();
  Gate(bus.apply_errors() == 0, "bus apply errors");
  std::printf("bus: queue high water %llu, rejected %llu, overload shed %llu, "
              "deadline shed %llu, drain %.1f ms\n",
              static_cast<unsigned long long>(queue_hw_),
              static_cast<unsigned long long>(rejected_),
              static_cast<unsigned long long>(overload_shed_),
              static_cast<unsigned long long>(deadline_shed_), drain_ms_);
  server.Stop();
}

/// Registers home `h` on an oracle engine and primes it like the fleet.
bool Bench::OracleAddHome(core::ServingEngine* oracle, size_t h) {
  const HomeSpec& home = stream_.homes[h];
  bool ok = oracle->TryAddHome(home.id, HomeRules(home, *corpus_)).ok();
  for (const auto& e : EventRound(stream_, h, kPrimingRound, 1, 1.0, *corpus_)) {
    ok = ok && oracle->TryOnEvent(home.id, e).ok();
  }
  return ok;
}

/// Replays every inspected home's acked operations on one in-process
/// ServingEngine and requires each wire inspect answer to match it.
void Bench::CheckWireAgainstOracle() {
  Span oracle_span("oracle.replay");
  core::ServingEngine oracle(det_.get());
  std::vector<std::vector<size_t>> home_ops(stream_.homes.size());
  std::vector<char> inspected(stream_.homes.size(), 0);
  for (size_t i = 0; i < stream_.ops.size(); ++i) {
    const Op& op = stream_.ops[i];
    home_ops[static_cast<size_t>(op.home)].push_back(i);
    if (op.kind == OpKind::kInspect) inspected[static_cast<size_t>(op.home)] = 1;
  }
  uint64_t compared = 0, mismatches = 0;
  for (size_t h = 0; h < stream_.homes.size(); ++h) {
    if (!inspected[h]) continue;
    const HomeSpec& home = stream_.homes[h];
    bool ok = OracleAddHome(&oracle, h);
    for (size_t i : home_ops[h]) {
      const Op& op = stream_.ops[i];
      const Outcome& out = outcomes_[i];
      if (out.code != 0) continue;  // refused: never applied
      switch (op.kind) {
        case OpKind::kEventBatch: {
          Span sp("session.on_event");
          for (const auto& e : op.events) ok = ok && oracle.TryOnEvent(home.id, e).ok();
          on_event_us_.Add(sp.ElapsedMs() * 1e3 / static_cast<double>(op.events.size()));
          break;
        }
        case OpKind::kAddRule:
          ok = ok && oracle.TryAddRule(home.id, RuleWithId(*corpus_, op.corpus_rule, op.rule_id)).ok();
          break;
        case OpKind::kRemoveRule:
          ok = ok && oracle.TryRemoveRule(home.id, op.rule_id).ok();
          break;
        case OpKind::kInspect: {
          auto w = oracle.TryInspect(home.id, op.now_hours);
          ok = ok && w.ok();
          if (!w.ok()) break;
          ++compared;
          const bool same =
              out.degraded
                  ? (w.value().threat == out.threat && w.value().confidence == out.confidence)
                  : (w.value().Render() == out.rendered && w.value().confidence == out.confidence);
          if (!same) ++mismatches;
          break;
        }
      }
    }
    Gate(ok, "oracle replay of " + home.id + " failed");
  }
  std::printf("oracle: %llu inspect answers compared, %llu mismatches\n",
              static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(mismatches));
  Gate(compared > 0, "oracle compared no inspections");
  Gate(mismatches == 0, "wire inspect answers differ from the oracle");
}

// ---- audit_sweep ------------------------------------------------------------

void Bench::EventRoundInProcess(int round, double base_hours,
                                Samples* ack_ms) {
  const auto by_shard = HomesByShard();
  std::mutex mu;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kShards; ++k) {
    threads.emplace_back([&, k] {
      Samples ack, per_event;
      for (int h : by_shard[static_cast<size_t>(k)]) {
        const HomeSpec& home = stream_.homes[static_cast<size_t>(h)];
        const auto events =
            EventRound(stream_, static_cast<size_t>(h), static_cast<uint64_t>(round),
                       p_.round_events_per_rule, base_hours, *corpus_);
        Span sp("session.on_event");
        for (const auto& e : events) {
          if (!fleet_->TryOnEvent(home.id, e).ok()) errors.fetch_add(1);
        }
        const double ms = sp.ElapsedMs();
        ack.Add(ms);
        per_event.Add(ms * 1e3 / static_cast<double>(events.size()));
      }
      std::lock_guard<std::mutex> lock(mu);
      if (ack_ms != nullptr) ack_ms->Append(ack);
      on_event_us_.Append(per_event);
    });
  }
  for (auto& t : threads) t.join();
  attempted_ += stream_.homes.size();
  failed_ += static_cast<uint64_t>(errors.load());
  Gate(errors.load() == 0, "event round failed");
  end_hours_ = std::max(end_hours_, base_hours + 0.5);
}

void Bench::RunAudit() {
  const int n = static_cast<int>(stream_.homes.size());
  std::vector<int> sample;
  for (int i = 0; i < kOracleSample; ++i) sample.push_back(i * n / kOracleSample);
  // The oracle serves the sample homes through the same rounds.
  core::ServingEngine oracle(det_.get());
  for (int h : sample) {
    Gate(OracleAddHome(&oracle, static_cast<size_t>(h)),
         "oracle registration failed");
  }
  uint64_t compared = 0, mismatches = 0;
  auto check = [&](int round, double base, double now,
                   const std::vector<ThreatWarning>& got) {
    for (int h : sample) {
      const HomeSpec& home = stream_.homes[static_cast<size_t>(h)];
      for (const auto& e :
           EventRound(stream_, static_cast<size_t>(h), static_cast<uint64_t>(round),
                      p_.round_events_per_rule, base, *corpus_)) {
        Gate(oracle.TryOnEvent(home.id, e).ok(), "oracle event failed");
      }
      auto w = oracle.TryInspect(home.id, now);
      ++compared;
      if (!w.ok() || Fingerprint(w.value()) != Fingerprint(got[static_cast<size_t>(h)])) {
        ++mismatches;
      }
    }
  };

  std::map<std::string, int> index_of;
  for (int h = 0; h < n; ++h) index_of[stream_.homes[static_cast<size_t>(h)].id] = h;
  const auto t0 = Clock::now();
  int sweeps = 0, passes = 0;
  // Alternate sweep cycles and per-home cycles until the time is up and
  // both measurements have enough samples.
  for (int round = 1;; ++round) {
    const bool enough = sweeps >= 1 && inspect_ms_.Supports(0.99) &&
                        ack_ms_.Supports(0.99);
    if (SecondsSince(t0) >= seconds_ && enough) break;
    const double base = stream_.start_hours + 4.0 * round;
    const double now = base + 0.5;
    EventRoundInProcess(round, base, &ack_ms_);
    std::vector<ThreatWarning> got(static_cast<size_t>(n));
    const bool sweep_cycle = (round % 2 == 1);
    if (sweep_cycle) {
      glint::fleet::FleetWarnings all = Sweep(now);
      ++sweeps;
      for (size_t i = 0; i < all.ids.size(); ++i) {
        got[static_cast<size_t>(index_of.at(all.ids[i]))] = std::move(all.warnings[i]);
      }
    } else {
      const auto by_shard = HomesByShard();
      // Traced runs leave every second pass untraced: the difference is
      // the tracing overhead.
      const bool traced_pass = trace_ && passes % 2 == 0;
      Tracer::Enable(traced_pass);
      std::mutex mu;
      std::atomic<int> errors{0};
      std::vector<std::thread> threads;
      for (int k = 0; k < kShards; ++k) {
        threads.emplace_back([&, k] {
          Samples lat;
          for (int h : by_shard[static_cast<size_t>(k)]) {
            Span sp("fleet.try_inspect");
            auto w = fleet_->TryInspect(stream_.homes[static_cast<size_t>(h)].id, now);
            lat.Add(sp.ElapsedMs());
            if (!w.ok()) {
              errors.fetch_add(1);
              continue;
            }
            got[static_cast<size_t>(h)] = std::move(w.value());
          }
          std::lock_guard<std::mutex> lock(mu);
          inspect_ms_.Append(lat);
          (traced_pass ? inspect_traced_ms_ : inspect_untraced_ms_).Append(lat);
        });
      }
      for (auto& t : threads) t.join();
      Tracer::Enable(trace_);
      ++passes;
      attempted_ += static_cast<uint64_t>(n);
      failed_ += static_cast<uint64_t>(errors.load());
      Gate(errors.load() == 0, "per-home inspection failed");
    }
    check(round, base, now, got);
    if (trace_) {
      // Stage replays of a few homes; each must equal what the fleet said.
      for (int i = 0; i < 8; ++i) {
        const int h = static_cast<int>((Mix(seed_, round * 31 + i)) % n);
        const std::string& id = stream_.homes[static_cast<size_t>(h)].id;
        core::ServingEngine& eng = fleet_->shard(fleet_->ShardOf(id));
        const ThreatWarning composed =
            StageReplay(eng.home_view(eng.ResolveHome(id)), now);
        ++replays_;
        if (Fingerprint(composed) != Fingerprint(got[static_cast<size_t>(h)])) {
          ++replay_mismatches_;
        }
      }
    }
  }
  TakeStatsAfter();
  std::printf("audit: %d sweeps, %d per-home passes, oracle %llu compared, %llu mismatches\n",
              sweeps, passes, static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(mismatches));
  Gate(mismatches == 0, "fleet answers differ from the oracle");
  if (trace_) {
    // Thread-pool scaling: one more round swept at 1 thread.
    const int threads = glint::ThreadPool::Global().threads();
    const int round = 1 << 20;
    const double base = stream_.start_hours + 4.0 * round;
    EventRoundInProcess(round, base, nullptr);
    glint::ThreadPool::SetGlobalThreads(1);
    const auto ts = Clock::now();
    (void)fleet_->InspectAll(base + 0.5, kSweepBatch);
    sweep_1t_hps_.Add(n / SecondsSince(ts));
    glint::ThreadPool::SetGlobalThreads(threads);
  }
}

// ---- Epilogue ---------------------------------------------------------------

/// F1 of the fleet's threat verdicts against ThreatAnalyzer labels of the
/// same materialized graphs (the sweep's graphs: `now` is the sweep's).
void Bench::Score(double now, const glint::fleet::FleetWarnings& all) {
  for (size_t i = 0; i < all.ids.size(); ++i) {
    core::ServingEngine& eng = fleet_->shard(fleet_->ShardOf(all.ids[i]));
    graph::InteractionGraph g =
        eng.home_view(eng.ResolveHome(all.ids[i])).live().MaterializeRealTime(now);
    graph::ThreatAnalyzer::Label(&g);
    const bool label = g.vulnerable();
    const bool verdict = all.warnings[i].threat;
    tp_ += label && verdict;
    fp_ += !label && verdict;
    fn_ += label && !verdict;
    threats_ += verdict;
  }
  swept_ += all.ids.size();
}

/// One timed ShardedFleet::InspectAll at `now`, scored.
glint::fleet::FleetWarnings Bench::Sweep(double now) {
  glint::fleet::FleetWarnings all;
  {
    Span sp("fleet.inspect_all");
    const auto ts = Clock::now();
    all = fleet_->InspectAll(now, kSweepBatch);
    sweep_hps_.Add(static_cast<double>(all.ids.size()) / SecondsSince(ts));
  }
  attempted_ += all.ids.size();
  Gate(all.ids.size() == stream_.homes.size(), "sweep missed homes");
  Score(now, all);
  return all;
}

/// Session counters at the end of the timed phase (fleet quiescent), and
/// how unevenly the shards ingested.
void Bench::TakeStatsAfter() {
  stats_after_ = fleet_->AggregateStats();
  std::vector<double> events;
  for (int k = 0; k < kShards; ++k) {
    events.push_back(static_cast<double>(fleet_->shard(k).AggregateStats().events));
  }
  events_max_over_mean_ =
      Ratio(*std::max_element(events.begin(), events.end()),
            std::accumulate(events.begin(), events.end(), 0.0) / kShards);
}

std::map<std::string, uint64_t> Bench::StateFingerprints() const {
  std::map<std::string, uint64_t> out;
  for (int k = 0; k < fleet_->num_shards(); ++k) {
    const core::ServingEngine& eng = fleet_->shard(k);
    for (size_t h = 0; h < eng.num_homes(); ++h) {
      glint::util::ByteWriter w;
      eng.home_view(static_cast<int>(h)).SerializeTo(&w);
      out[eng.home_id(static_cast<int>(h))] =
          Fnv1a(w.buffer().data(), w.buffer().size());
    }
  }
  return out;
}

/// Restarts the fleet from its state directory at least 3 times and for at
/// least 2 s (median time), and requires each recovered fleet to equal the
/// one before. An in-memory fleet is first copied into a durable one
/// (every home's rules and retained events through the journaled API), so
/// every workload restarts from a WAL.
void Bench::RestartAndCompare() {
  const auto before = StateFingerprints();
  if (!p_.durable) {
    Span sp("fleet.durable_copy");
    auto copy = OpenDurable();
    bool ok = true;
    for (int k = 0; k < kShards; ++k) {
      const core::ServingEngine& eng = fleet_->shard(k);
      for (size_t h = 0; h < eng.num_homes(); ++h) {
        const auto& s = eng.home_view(static_cast<int>(h));
        const std::string& id = eng.home_id(static_cast<int>(h));
        ok = ok && copy->TryAddHome(id, s.CurrentRules()).ok();
        for (const auto& e : s.live().retained_events()) {
          ok = ok && copy->TryOnEvent(id, e).ok();
        }
      }
    }
    Gate(ok, "copying the fleet into a durable one failed");
    fleet_ = std::move(copy);
    Gate(StateFingerprints() == before, "the durable copy differs from the fleet");
  }
  glint::fleet::FleetConfig durable = fcfg_;
  durable.state_dir = state_dir_;
  Samples recover_s;
  uint64_t records = 0;
  for (int i = 0; i < 15 && (i < 3 || recover_s.Sum() < 2.0); ++i) {
    fleet_.reset();  // closes every shard's journal
    fleet_ = std::make_unique<ShardedFleet>(det_.get(), durable);
    Span sp("fleet.recover");
    const auto t0 = Clock::now();
    const glint::Status st = fleet_->Recover();
    recover_s.Add(SecondsSince(t0));
    Gate(st.ok(), "Recover failed: " + st.ToString());
    Gate(StateFingerprints() == before,
         "recovered fleet differs from the fleet before the restart");
    records = 0;
    for (int k = 0; k < kShards; ++k) {
      records += fleet_->shard(k).recovery_info().tail_records;
    }
  }
  e2e_.Add("recover_s", recover_s.Percentile(0.5), "s");
  Layer("recovery.replay_records_per_s",
        Ratio(static_cast<double>(records), recover_s.Percentile(0.5)), "1/s");
}

/// Traced runs only: the per-layer costs no workload phase exposes on its
/// own — journal bytes and append cost per event, snapshot time, rule
/// churn, and batched analysis per graph.
void Bench::TracedProbes() {
  // Journal: the same events applied to a durable and a plain engine.
  const HomeSpec& home = stream_.homes[0];
  const std::vector<rules::Rule> rs = HomeRules(home, *corpus_);
  std::vector<graph::Event> events;
  for (int r = 0; r < 40; ++r) {
    for (const auto& e : EventRound(stream_, 0, 5000 + r, 4, 10.0 + r, *corpus_)) {
      events.push_back(e);
    }
  }
  const std::string jdir = state_dir_ + "/journal-probe";
  double durable_ms = 0, plain_ms = 0;
  uint64_t bytes = 0;
  {
    core::ServingEngine durable(det_.get());
    core::ServingEngine plain(det_.get());
    bool ok = durable.Recover(jdir).ok() && durable.TryAddHome(home.id, rs).ok() &&
              plain.TryAddHome(home.id, rs).ok();
    const uint64_t b0 = DirBytes(jdir);
    {
      Span sp("journal.on_event_durable");
      for (const auto& e : events) ok = ok && durable.TryOnEvent(home.id, e).ok();
      durable_ms = sp.ElapsedMs();
    }
    bytes = DirBytes(jdir) - b0;
    {
      Span sp("session.on_event_plain");
      for (const auto& e : events) ok = ok && plain.TryOnEvent(home.id, e).ok();
      plain_ms = sp.ElapsedMs();
    }
    Gate(ok, "journal probe failed");
  }
  const double ne = static_cast<double>(events.size());
  Layer("journal.bytes_per_event", bytes / ne, "B");
  journal_append_us_ = std::max(0.0, (durable_ms - plain_ms) * 1e3 / ne);
  Layer("journal.append_us", journal_append_us_, "us");
  {
    Span sp("journal.snapshot");
    const glint::Status st = fleet_->Snapshot();
    Gate(st.ok(), "snapshot failed");
    Layer("journal.snapshot_ms", sp.ElapsedMs() / kShards, "ms");
  }

  // Server-side frame decode, on the run's own event-batch frames.
  {
    std::vector<std::vector<char>> payloads;
    for (const Op& op : stream_.ops) {
      if (op.kind != OpKind::kEventBatch) continue;
      payloads.push_back(wire::EncodeRequest(
          RequestFor(op, stream_.homes[static_cast<size_t>(op.home)], *corpus_)));
      if (payloads.size() == 500) break;
    }
    Span sp("wire.decode");
    bool ok = true;
    for (const auto& pl : payloads) {
      wire::Request req;
      ok = ok && wire::DecodeRequest(pl, &req).ok();
    }
    Gate(ok, "decoding the run's own frames failed");
    decode_us_ = payloads.empty() ? 0 : sp.ElapsedMs() * 1e3 / payloads.size();
    Layer("wire.decode_us_per_frame", decode_us_, "us");
  }

  // Rule churn on a scratch engine holding a few of the workload's homes.
  Samples add_ms, remove_ms;
  {
    core::ServingEngine scratch(det_.get());
    for (int i = 0; i < 16; ++i) {
      const size_t h = static_cast<size_t>(i) * stream_.homes.size() / 16;
      const HomeSpec& hs = stream_.homes[h];
      bool ok = scratch.TryAddHome(hs.id, HomeRules(hs, *corpus_)).ok();
      const int ci = static_cast<int>(Mix(seed_, 77 + i) % corpus_->size());
      {
        Span sp("session.add_rule");
        ok = ok && scratch.TryAddRule(hs.id, RuleWithId(*corpus_, ci, 1000)).ok();
        add_ms.Add(sp.ElapsedMs());
      }
      {
        Span sp("session.remove_rule");
        bool removed = false;
        ok = ok && scratch.TryRemoveRule(hs.id, 1000, &removed).ok() && removed;
        remove_ms.Add(sp.ElapsedMs());
      }
      Gate(ok, "rule churn probe failed");
    }
  }
  Layer("session.add_rule_ms", add_ms.Mean(), "ms");
  Layer("session.remove_rule_ms", remove_ms.Mean(), "ms");

  // Batched analysis at the sweep's batch size, on the recovered fleet.
  std::vector<graph::InteractionGraph> gs;
  std::vector<gnn::GnnGraph> ggs;
  for (int i = 0; i < kSweepBatch; ++i) {
    const size_t h = static_cast<size_t>(i) * stream_.homes.size() / kSweepBatch;
    const std::string& id = stream_.homes[h].id;
    core::ServingEngine& eng = fleet_->shard(fleet_->ShardOf(id));
    gs.push_back(eng.home_view(eng.ResolveHome(id)).live().MaterializeRealTime(end_hours_));
  }
  for (const auto& g : gs) ggs.push_back(gnn::ToGnnGraph(g));
  std::vector<const gnn::GnnGraph*> gp;
  std::vector<const graph::InteractionGraph*> ip;
  for (size_t i = 0; i < gs.size(); ++i) {
    gp.push_back(&ggs[i]);
    ip.push_back(&gs[i]);
  }
  Span sp("gnn.analyze_batch");
  (void)det_->AnalyzeBatch(gp, ip);
  Layer("gnn.analyze_batch_ms_per_graph", sp.ElapsedMs() / kSweepBatch, "ms");
}

void Bench::ReportLayers() {
  const std::string path = out_dir_ + "/spans-" + WorkloadName(w_) + "-" +
                           std::to_string(seed_) + ".tsv";
  const auto spans = Tracer::WriteAndSummarize(path);
  auto mean_ms = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.spans == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.spans);
  };
  // fleet: wire and generator.
  Samples inspect_ok, ack_ok;
  for (size_t i = 0; i < outcomes_.size(); ++i) {
    if (outcomes_[i].code != 0 || stream_.ops[i].due_s < p_.warmup_s) continue;
    const OpKind k = stream_.ops[i].kind;
    if (k == OpKind::kInspect) inspect_ok.Add(outcomes_[i].latency_ms);
    if (k == OpKind::kEventBatch) ack_ok.Add(outcomes_[i].latency_ms);
  }
  Layer("wire.inspect_rtt_ms.p50", inspect_ok.Percentile(0.5), "ms");
  Layer("wire.inspect_rtt_ms.p99", inspect_ok.Percentile(0.99), "ms");
  Layer("wire.batch_ack_rtt_ms.p50", ack_ok.Percentile(0.5), "ms");
  Layer("wire.batch_ack_rtt_ms.p99", ack_ok.Percentile(0.99), "ms");
  Layer("wire.frame_bytes_per_event", Ratio(frame_bytes_, frame_events_), "B");
  Layer("gen.sched_lag_ms.p99", sched_lag_ms_.Percentile(0.99), "ms");
  Layer("gen.achieved_rate_ratio", achieved_ratio_, "ratio");
  // fleet: bus.
  Layer("bus.shard_wait_ms.p50", shard_wait_ms_.Percentile(0.5), "ms");
  Layer("bus.shard_wait_ms.p99", shard_wait_ms_.Percentile(0.99), "ms");
  Layer("bus.drain_ms", drain_ms_, "ms");
  Layer("bus.queue_high_water", static_cast<double>(queue_hw_), "count");
  Layer("bus.rejected", static_cast<double>(rejected_), "count");
  Layer("bus.overload_shed", static_cast<double>(overload_shed_), "count");
  Layer("bus.deadline_shed", static_cast<double>(deadline_shed_), "count");
  // fleet: sharding.
  std::vector<double> homes;
  for (int k = 0; k < kShards; ++k) {
    homes.push_back(static_cast<double>(fleet_->shard(k).num_homes()));
  }
  Layer("shard.homes_max_over_mean",
        Ratio(*std::max_element(homes.begin(), homes.end()),
              static_cast<double>(p_.homes) / kShards),
        "ratio");
  Layer("shard.events_max_over_mean", events_max_over_mean_, "ratio");
  // core: session.
  Layer("session.add_home_ms", add_home_ms_.Mean(), "ms");
  Layer("session.on_event_us", on_event_us_.Mean(), "us");
  const auto hits = [&](uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    return Ratio(static_cast<double>(a - b), static_cast<double>(a - b + c - d));
  };
  Layer("session.verdict_hit_ratio",
        hits(stats_after_.verdict_hits, stats_before_.verdict_hits,
             stats_after_.verdict_misses, stats_before_.verdict_misses),
        "ratio");
  Layer("session.tensor_hit_ratio",
        hits(stats_after_.tensor_hits, stats_before_.tensor_hits,
             stats_after_.tensor_misses, stats_before_.tensor_misses),
        "ratio");
  // graph, gnn, explain.
  Layer("graph.materialize_ms", mean_ms("graph.materialize"), "ms");
  Layer("gnn.tensorize_ms", mean_ms("gnn.tensorize"), "ms");
  Layer("gnn.drift_ms", mean_ms("gnn.drift"), "ms");
  Layer("gnn.classify_ms", mean_ms("gnn.classify"), "ms");
  Layer("gnn.train_graphs_per_s", Ratio(det_->options().num_training_graphs, train_s_), "1/s");
  Layer("explain.ms", mean_ms("explain.nodes"), "ms");
  Layer("model.threat_share", Ratio(threats_, swept_), "ratio");
  Gate(replays_ > 0, "no stage replay ran");
  Gate(replay_mismatches_ == 0, "stage replay differs from TryInspect");
  // correlation, nlp.
  Layer("correlation.correlated_us", Ratio(corr_ms_ * 1e3, corr_calls_), "us");
  Layer("correlation.cache_hit_ratio",
        1.0 - Ratio(static_cast<double>(corr_misses_), static_cast<double>(corr_calls_)),
        "ratio");
  Layer("nlp.make_node_us", Ratio(node_ms_ * 1e3, node_calls_), "us");
  Layer("nlp.embed_cache_hit_ratio",
        Ratio(static_cast<double>(node_memo_hits_), static_cast<double>(node_lookups_)),
        "ratio");
  // util: thread pool.
  Layer("pool.sweep_speedup_nproc_v1",
        sweep_1t_hps_.size() ? Ratio(sweep_hps_.Percentile(0.5), sweep_1t_hps_.Percentile(0.5)) : 0,
        "ratio");
  // Tracing overhead: inspect p50 in traced slices minus untraced ones.
  Layer("trace.overhead_ms",
        inspect_traced_ms_.Percentile(0.5) - inspect_untraced_ms_.Percentile(0.5), "ms");
  Layer("trace.spans", static_cast<double>(Tracer::Count()), "count");

  // Serving-side split by layer group: per-operation self times from the
  // spans, scaled by the operations the timed phase served.
  auto self_per_span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.spans == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.spans);
  };
  auto per_replay = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || replays_ == 0 ? 0.0
                                             : it->second.self_ms / static_cast<double>(replays_);
  };
  const double misses =
      static_cast<double>(stats_after_.verdict_misses - stats_before_.verdict_misses);
  const double events = static_cast<double>(stats_after_.events - stats_before_.events);
  const double frames = static_cast<double>(stream_.ops.size());
  const double model_ms =
      misses * (self_per_span("gnn.drift") + self_per_span("gnn.classify") +
                per_replay("explain.nodes"));
  const double graph_ms =
      misses * (self_per_span("graph.materialize") + self_per_span("gnn.tensorize"));
  const double ingest_ms =
      frames * decode_us_ / 1e3 +
      events * (on_event_us_.Mean() + (p_.durable ? journal_append_us_ : 0)) / 1e3;
  const double serving_ms = model_ms + graph_ms + ingest_ms;
  Layer("selftime.model_share", Ratio(model_ms, serving_ms), "ratio");
  Layer("selftime.ingest_share", Ratio(ingest_ms, serving_ms), "ratio");
  std::printf("serving-side split (ms): model %.1f, materialize+tensorize %.1f, "
              "ingest %.1f; %llu stage replays\n",
              model_ms, graph_ms, ingest_ms, static_cast<unsigned long long>(replays_));
  std::printf("self time by span (ms): spans total self\n");
  for (const auto& [name, l] : spans) {
    std::printf("  %-28s %8llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(l.spans), l.total_ms, l.self_ms);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload serve_zipf|ingest_durable|"
               "audit_sweep --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  Workload w = Workload::kServeZipf;
  bool have_w = false;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      have_w = ParseWorkload(v, &w);
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_w || seconds <= 0) return Usage();
  Bench bench(w, seed, seconds, trace, out_dir);
  return bench.Run();
}
