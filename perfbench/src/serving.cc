// The serving workloads, `ingest_single` (one GraphStore) and
// `ingest_f4` (a 4-fragment Coordinator): HttpServer + FeedService +
// ViolationChangefeed wired on loopback exactly as `gfdtool serve run`
// wires them, driven by a closed loop of two producer connections that
// POST small delta batches to /ingest (each waits for its verdict before
// sending the next, as change-data-capture writers do) while two live
// subscribers read /feed. After the stream a fresh subscriber replays
// the whole feed from cursor 0.
//
// Traced runs add, from this file only: a ServingStore decorator that
// times every store call, a wrapper around the HttpHandler, an
// in-process FeedSubscription beside the SSE readers, and, after the
// stream has ended, replays of the recorded batches on twin stores.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "core/seqdis.h"
#include "datagen/noise.h"
#include "gfd/serialize.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "net/feed_service.h"
#include "net/http_server.h"
#include "pattern/canonical.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/delta_log.h"
#include "serve/graph_store.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kScale = 300;          // YAGO2-like, |V| = 695
constexpr size_t kRuleGroups = 10;      // pattern groups kept
constexpr size_t kRulesPerGroup = 25;   // rules kept per group
constexpr int kProducers = 2;           // /ingest connections
constexpr int kLiveSubscribers = 2;     // /feed connections during the run
constexpr size_t kBatchesPerProducer = 120;  // per segment
constexpr int kSetupsPerSegment = 3;    // timed set-ups per segment
constexpr int64_t kSegmentCapNs = 60'000'000'000LL;  // stream time limit
constexpr size_t kReplayBatches = 400;  // twin-store replay sample
constexpr size_t kBatchOnlySamples = 40;

// ------------------------------------------------------------- inputs

std::string Path(const Options& o, const std::string& name) {
  return o.dir + "/" + name;
}

/// Mirrors bench_detect: the largest pattern groups of the rules SeqDis
/// mines from the clean graph, a bounded number of rules per group.
std::vector<gfd::Gfd> BuildRuleSet(const gfd::PropertyGraph& g) {
  auto all = gfd::SeqDis(g, gfd::bench::ScaledConfig(g)).AllGfds();
  std::map<std::vector<uint32_t>, std::vector<size_t>> by_code;
  for (size_t i = 0; i < all.size(); ++i) {
    by_code[gfd::CanonicalCode(all[i].pattern, /*fix_pivot=*/true)]
        .push_back(i);
  }
  std::vector<std::vector<size_t>> groups;
  for (auto& [code, members] : by_code) groups.push_back(std::move(members));
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() > b.size() : a[0] < b[0];
  });
  std::vector<gfd::Gfd> rules;
  for (size_t gi = 0; gi < groups.size() && gi < kRuleGroups; ++gi) {
    for (size_t i = 0; i < groups[gi].size() && i < kRulesPerGroup; ++i) {
      rules.push_back(std::move(all[groups[gi][i]]));
    }
  }
  return rules;
}

/// One producer's batches, generated on demand from (graph, seed, p).
/// Producer p owns the base edges at positions = p (mod 2) and the nodes
/// likewise. Each 8-op batch makes 4 forward changes -- 2 fresh edges
/// of an existing (label, edge label, label) shape, 1 delete of one of
/// its base edges, 1 attribute set to a value seen in the graph -- and
/// undoes the 4 changes of the batch kWindow batches back. The served
/// graph therefore stays within kWindow batches of the base graph
/// however long the run, so the per-batch work is stationary and
/// comparable across seeds. Every batch is valid whatever the
/// interleaving with the other producer.
class StreamGenerator {
 public:
  static constexpr size_t kWindow = 16;

  StreamGenerator(const GraphModel& m, int p, uint64_t seed)
      : rng_(seed * 1000003 + p) {
    for (const auto& name : m.order()) {
      by_label_[m.nodes().at(name).label].push_back(name);
    }
    for (size_t i = 0; i < m.base_edges().size(); ++i) {
      const auto& [s, d, l] = m.base_edges()[i];
      shapes_.emplace_back(m.nodes().at(s).label, l, m.nodes().at(d).label);
      if (i % kProducers == static_cast<size_t>(p)) {
        base_live_.push_back(m.base_edges()[i]);
      }
    }
    for (size_t i = 0; i < m.order().size(); ++i) {
      const auto& node = m.nodes().at(m.order()[i]);
      for (const auto& [k, v] : node.attrs) values_[k].push_back(v);
      if (i % kProducers == static_cast<size_t>(p) && !node.attrs.empty()) {
        attrs_[m.order()[i]] = node.attrs;
        mine_.push_back(m.order()[i]);
      }
    }
  }

  std::string Next() {
    std::string batch;
    std::vector<Change> forward;
    for (int i = 0; i < 2; ++i) {
      const auto& [sl, l, dl] = shapes_[Pick(shapes_.size())];
      const auto& srcs = by_label_[sl];
      const auto& dsts = by_label_[dl];
      Change c{Change::kInsert,
               {srcs[Pick(srcs.size())], dsts[Pick(dsts.size())], l}, {}, {},
               {}};
      batch += EdgeLine("E+", c.edge);
      forward.push_back(std::move(c));
    }
    {
      size_t i = Pick(base_live_.size());
      Change c{Change::kDelete, std::move(base_live_[i]), {}, {}, {}};
      base_live_[i] = std::move(base_live_.back());
      base_live_.pop_back();
      batch += EdgeLine("E-", c.edge);
      forward.push_back(std::move(c));
    }
    for (int tries = 0; tries < 16; ++tries) {
      const std::string& node = mine_[Pick(mine_.size())];
      auto& attrs = attrs_[node];
      auto it = std::next(attrs.begin(), Pick(attrs.size()));
      if (!busy_.emplace(node, it->first).second) continue;
      const auto& pool = values_[it->first];
      Change c{Change::kAttr, {}, node, it->first, it->second};
      it->second = pool[Pick(pool.size())];
      batch += AttrLine(node, it->first, it->second);
      forward.push_back(std::move(c));
      break;
    }
    window_.push_back(std::move(forward));
    if (window_.size() > kWindow) {
      for (Change& c : window_.front()) {
        if (c.kind == Change::kInsert) {
          batch += EdgeLine("E-", c.edge);
        } else if (c.kind == Change::kDelete) {
          batch += EdgeLine("E+", c.edge);
          base_live_.push_back(std::move(c.edge));
        } else {
          attrs_[c.node][c.key] = c.old_value;
          busy_.erase({c.node, c.key});
          batch += AttrLine(c.node, c.key, c.old_value);
        }
      }
      window_.pop_front();
    }
    return batch;
  }

 private:
  struct Change {
    enum Kind { kInsert, kDelete, kAttr } kind;
    GraphModel::EdgeKey edge;
    std::string node, key, old_value;
  };

  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  static std::string EdgeLine(const char* tag, const GraphModel::EdgeKey& e) {
    const auto& [s, d, l] = e;
    return std::string(tag) + "\t" + s + "\t" + d + "\t" + l + "\n";
  }
  static std::string AttrLine(const std::string& node, const std::string& key,
                              const std::string& value) {
    return "A\t" + node + "\t" + key + "=" + value + "\n";
  }

  std::mt19937_64 rng_;
  std::map<std::string, std::vector<std::string>> by_label_;
  std::vector<std::tuple<std::string, std::string, std::string>> shapes_;
  std::vector<GraphModel::EdgeKey> base_live_;
  std::map<std::string, std::vector<std::string>> values_;
  std::map<std::string, std::map<std::string, std::string>> attrs_;
  std::vector<std::string> mine_;
  std::set<std::pair<std::string, std::string>> busy_;
  std::deque<std::vector<Change>> window_;
};

// ---------------------------------------------------- traced wrappers

/// Times every call into the wrapped store. `thread_ns` accumulates the
/// time the calling thread spent inside the store, so the handler
/// wrapper can split a request into store time and everything else.
class TimedStore final : public gfd::ServingStore {
 public:
  explicit TimedStore(gfd::ServingStore& inner) : inner_(inner) {}

  static inline thread_local int64_t thread_ns = 0;

  std::optional<uint64_t> Append(std::string_view delta_tsv,
                                 std::string* error) override {
    Clock c;
    return inner_.Append(delta_tsv, error);
  }
  std::optional<gfd::IncrementalDiff> AppendAndDiff(
      const gfd::ViolationEngine& engine, std::string_view delta_tsv,
      const gfd::IncrementalOptions& opts, uint64_t* seq_out,
      std::string* error) override {
    int64_t t0 = NowNs();
    std::optional<gfd::IncrementalDiff> diff;
    {
      Clock c;
      diff = inner_.AppendAndDiff(engine, delta_tsv, opts, seq_out, error);
    }
    double ms = MsSince(t0);
    size_t overlay = inner_.MetricsSnapshot().overlay_ops;
    std::lock_guard lock(mu_);
    append_and_diff_ms.push_back(ms);
    overlay_ops.push_back(static_cast<double>(overlay));
    return diff;
  }
  uint64_t last_seq() const override { return inner_.last_seq(); }
  gfd::ServingMetricsSnapshot MetricsSnapshot() const override {
    Clock c;
    return inner_.MetricsSnapshot();
  }
  std::optional<uint64_t> violation_count(
      uint64_t fingerprint) const override {
    Clock c;
    return inner_.violation_count(fingerprint);
  }
  bool SetViolationCount(uint64_t count, uint64_t fingerprint,
                         std::string* error) override {
    Clock c;
    return inner_.SetViolationCount(count, fingerprint, error);
  }
  bool ShouldCompact() const override {
    Clock c;
    return inner_.ShouldCompact();
  }
  bool Compact(std::string* error) override {
    Clock c;
    return inner_.Compact(error);
  }
  bool MaybeCompact(std::string* error) override {
    bool will = inner_.ShouldCompact();
    int64_t t0 = NowNs();
    bool ok;
    {
      Clock c;
      ok = inner_.MaybeCompact(error);
    }
    if (will) {
      std::lock_guard lock(mu_);
      compact_ms.push_back(MsSince(t0));
    }
    return ok;
  }
  gfd::PropertyGraph MaterializeCurrent() const override {
    Clock c;
    return inner_.MaterializeCurrent();
  }

  std::mutex mu_;  // guards: the three sample vectors below
  std::vector<double> append_and_diff_ms;
  std::vector<double> overlay_ops;
  std::vector<double> compact_ms;

 private:
  struct Clock {
    int64_t t0 = NowNs();
    ~Clock() { thread_ns += NowNs() - t0; }
  };
  gfd::ServingStore& inner_;
};

struct HandlerStats {
  std::mutex mu;  // guards: handler_ms, wait_ms
  std::vector<double> handler_ms;  ///< inside the HttpHandler, /ingest
  std::vector<double> wait_ms;     ///< handler time outside store calls
};

// ------------------------------------------------------------- stack

struct SetupTimes {
  double setup_s = 0, load_s = 0, init_s = 0, open_s = 0, prime_s = 0;
};

/// One server instance with its store, feed and live subscribers, torn
/// down in dependency order.
class ServingStack {
 public:
  ServingStack() = default;
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack() { Stop(); }

  bool Start(const Options& o, const std::string& dir, size_t fragments,
             const std::string& rules_text, SetupTimes* t,
             std::string* error) {
    int64_t t0 = NowNs();
    base = gfd::LoadGraphTsvFile(Path(o, "graph.tsv"), error);
    if (!base) return false;
    t->load_s = SecondsSince(t0);
    std::istringstream rs(rules_text);
    auto rules = gfd::LoadGfds(rs, *base, error);
    if (!rules) return false;
    engine = std::make_unique<gfd::ViolationEngine>(std::move(*rules));
    radius = std::max<uint32_t>(1, engine->MaxPatternRadius());
    int64_t t_init = NowNs();
    bool inited = fragments ? gfd::Coordinator::Init(dir, *base, fragments,
                                                     radius, error)
                            : gfd::GraphStore::Init(dir, *base, error);
    if (!inited) return false;
    t->init_s = SecondsSince(t_init);
    int64_t t_open = NowNs();
    if (fragments) {
      coord = gfd::Coordinator::Open(dir, {}, error);
      if (!coord) return false;
      store = &*coord;
    } else {
      single = gfd::GraphStore::Open(dir, {}, error);
      if (!single) return false;
      store = &*single;
    }
    t->open_s = SecondsSince(t_open);
    feed = gfd::ViolationChangefeed::Open(dir, store->last_seq(), error);
    if (!feed) return false;
    gfd::ServingStore* served = store;
    if (o.trace) {
      timed = std::make_unique<TimedStore>(*store);
      served = timed.get();
    }
    gfd::net::FeedServiceOptions fo;
    fo.backend = fragments ? "distributed" : "single";
    service = std::make_unique<gfd::net::FeedService>(*served, *engine,
                                                      *feed, fo);
    int64_t t_prime = NowNs();
    service->Prime();
    t->prime_s = SecondsSince(t_prime);

    gfd::net::HttpHandler handler =
        [this](const gfd::net::HttpRequest& req, gfd::net::ResponseWriter& w) {
          service->Handle(req, w);
        };
    if (o.trace) {
      handler = [this](const gfd::net::HttpRequest& req,
                       gfd::net::ResponseWriter& w) {
        if (req.path != "/ingest") return service->Handle(req, w);
        TimedStore::thread_ns = 0;
        int64_t h0 = NowNs();
        service->Handle(req, w);
        int64_t dt = NowNs() - h0;
        std::lock_guard lock(handler_stats.mu);
        handler_stats.handler_ms.push_back(dt * 1e-6);
        handler_stats.wait_ms.push_back((dt - TimedStore::thread_ns) * 1e-6);
      };
    }
    if (o.trace) {
      // Subscribed before the SSE readers, so a publish reaches it
      // first and net.sse_delivery_ms measures the SSE hop alone.
      std::vector<gfd::FeedEvent> none;
      inproc_sub = feed->Subscribe(0, 1u << 20, &none);
    }
    gfd::net::HttpServerOptions ho;
    ho.workers = kProducers + kLiveSubscribers + 2;
    server = gfd::net::HttpServer::Start(ho, handler, error);
    if (!server) return false;
    for (int k = 0; k < kLiveSubscribers; ++k) {
      auto sub = std::make_unique<LiveSubscriber>();
      sub->log.name = "live-" + std::to_string(k);
      int status = 0;
      if (!sub->conn.Connect(server->port(), error) ||
          !sub->conn.OpenStream("/feed?cursor=0", &status) || status != 200) {
        *error = "live subscriber could not attach";
        return false;
      }
      subs.push_back(std::move(sub));
    }
    t->setup_s = SecondsSince(t0);
    return true;
  }

  void Stop() {
    if (inproc_sub) feed->Unsubscribe(inproc_sub);
    inproc_sub.reset();
    if (feed) feed->Shutdown();
    if (server) server->Stop();
    for (auto& s : subs) s->conn.Close();
  }

  struct LiveSubscriber {
    HttpClient conn;
    SseParser parser;
    SubscriberLog log;
    std::vector<int64_t> recv_ns;
    bool eof = false;
  };

  std::optional<gfd::PropertyGraph> base;
  std::unique_ptr<gfd::ViolationEngine> engine;
  uint32_t radius = 1;
  std::optional<gfd::GraphStore> single;
  std::optional<gfd::Coordinator> coord;
  gfd::ServingStore* store = nullptr;
  std::unique_ptr<TimedStore> timed;
  std::unique_ptr<gfd::ViolationChangefeed> feed;
  std::shared_ptr<gfd::FeedSubscription> inproc_sub;  ///< traced only
  HandlerStats handler_stats;
  std::unique_ptr<gfd::net::FeedService> service;
  std::unique_ptr<gfd::net::HttpServer> server;
  std::vector<std::unique_ptr<LiveSubscriber>> subs;
};

/// Reads SSE frames from `conn` into `log` until `done()` or EOF.
void DrainFrames(HttpClient& conn, SseParser& parser, SubscriberLog& log,
                 std::vector<int64_t>& recv_ns, bool* eof) {
  std::string bytes;
  if (!conn.ReadSome(&bytes)) {
    *eof = true;
    return;
  }
  int64_t now = NowNs();
  parser.Feed(bytes);
  SseParser::Frame f;
  while (parser.Next(&f)) {
    if (f.event == "evicted") {
      log.evicted = true;
    } else if (f.event == "diff") {
      log.seqs.push_back(std::strtoull(f.id.c_str(), nullptr, 10));
      log.data.push_back(std::move(f.data));
      recv_ns.push_back(now);
    }
  }
}

struct Sample {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint64_t seq = 0;
  int status = 0;
  size_t batch = 0;
};

}  // namespace

bool GenServing(const Options& o, std::string* error) {
  auto clean = gfd::bench::Yago2Like(o.scale ? o.scale : kScale);
  auto rules = BuildRuleSet(clean);
  auto noisy = gfd::InjectNoise(clean, {.alpha = 0.08, .beta = 0.6,
                                        .seed = 3});
  std::ostringstream gs;
  gfd::SaveGraphTsv(noisy.graph, gs);
  std::string graph_text = gs.str();
  std::istringstream gin(graph_text);
  auto served = gfd::LoadGraphTsv(gin, error);
  if (!served) return false;
  // Rules are re-resolved against the served graph's vocabulary (TSV
  // keeps only vocabulary in use), exactly as `serve run` loads them.
  std::ostringstream rs;
  gfd::SaveGfds(rules, clean, rs);
  std::istringstream rin(rs.str());
  size_t skipped = 0;
  auto kept = gfd::LoadGfdsLenient(rin, *served, &skipped);
  std::ostringstream out_rules;
  gfd::SaveGfds(kept, *served, out_rules);

  if (!GraphModel::Parse(graph_text, error) ||
      !WriteFile(Path(o, "graph.tsv"), graph_text, error) ||
      !WriteFile(Path(o, "rules.gfd"), out_rules.str(), error)) {
    return false;
  }
  std::printf("generated: %zu rules (%zu skipped by vocabulary)\n",
              kept.size(), skipped);
  return true;
}

namespace {

/// Samples pooled over a run's segments.
struct Pooled {
  std::vector<SetupTimes> setups;
  std::vector<double> ingest_ms, delivery_ms, catchup_per_s;
  std::vector<double> segment_p50_ms, segment_batches_per_s;
  uint64_t acked = 0;
  // Traced only.
  std::vector<double> handler_ms, wait_ms, append_and_diff_ms, overlay_ops,
      compact_ms, feed_ms, sse_ms, feed_replay_s;
  double planner_full = 0, planner_incremental = 0, groups_scanned = 0,
         groups_skipped = 0, shipped_bytes = 0, maintenance_ops = 0,
         messages = 0;
};

double MedianOf(const std::vector<SetupTimes>& v, double SetupTimes::*field) {
  std::vector<double> x;
  for (const auto& s : v) x.push_back(s.*field);
  return Median(x);
}

/// Twin-store replays of a segment's acknowledged batches, after its
/// stream has ended: ServingStore::Append alone, DeltaLog::Append alone,
/// and DetectIncremental over the pre-batch graph plus that batch only.
bool ReplayOnTwins(const Options& o, size_t fragments, const ServingStack& st,
                   const std::vector<const std::string*>& applied,
                   RunResult* r, std::string* error) {
  std::string twin_dir = Path(o, "twin");
  std::filesystem::remove_all(twin_dir);
  std::filesystem::remove(Path(o, "twin.log"));
  std::optional<gfd::GraphStore> twin_single;
  std::optional<gfd::Coordinator> twin_coord;
  gfd::ServingStore* twin = nullptr;
  if (fragments) {
    if (gfd::Coordinator::Init(twin_dir, *st.base, fragments, st.radius,
                               error)) {
      twin_coord = gfd::Coordinator::Open(twin_dir, {}, error);
      if (twin_coord) twin = &*twin_coord;
    }
  } else if (gfd::GraphStore::Init(twin_dir, *st.base, error)) {
    twin_single = gfd::GraphStore::Open(twin_dir, {}, error);
    if (twin_single) twin = &*twin_single;
  }
  auto log = gfd::DeltaLog::Open(Path(o, "twin.log"), 1, error);
  if (!twin || !log) return false;
  std::vector<double> append_ms, log_ms, batch_only_ms;
  size_t n = std::min(applied.size(), kReplayBatches);
  size_t every = std::max<size_t>(1, n / kBatchOnlySamples);
  for (size_t i = 0; i < n; ++i) {
    const std::string& batch = *applied[i];
    if (i % every == 0) {
      gfd::PropertyGraph pre = twin->MaterializeCurrent();
      std::istringstream in(batch);
      auto delta = gfd::LoadGraphDeltaTsv(in, pre, error);
      if (!delta) return false;
      auto view = gfd::GraphView::Apply(pre, *delta, error);
      if (!view) return false;
      int64_t t0 = NowNs();
      st.engine->DetectIncremental(*view);
      batch_only_ms.push_back(MsSince(t0));
    }
    int64_t t0 = NowNs();
    if (!twin->Append(batch, error)) return false;
    append_ms.push_back(MsSince(t0));
    if (!twin->MaybeCompact(error)) return false;
    t0 = NowNs();
    if (!log->Append(batch, error)) return false;
    log_ms.push_back(MsSince(t0));
  }
  r->Set("serve.append_ms", Percentile(append_ms, 0.5), "ms");
  r->Set("serve.log_append_ms", Percentile(log_ms, 0.5), "ms");
  r->Set("detect.batch_only_diff_ms", Percentile(batch_only_ms, 0.5), "ms");
  return true;
}

/// One segment: a fresh stack (timed set-up), the closed-loop stream of
/// kBatchesPerProducer batches from each producer, the catch-up
/// subscriber, then the checks. Every segment does the same work, so a
/// run's memory and operation counts do not follow the host's speed.
bool RunSegment(const Options& o, size_t fragments, int segment,
                const std::string& rules_text,
                GraphModel model, bool replay_twins, Pooled* pool,
                RunResult* r, std::string* error, ServingOutputs* keep) {
  std::string dir = Path(o, "store");
  // Spare set-ups, each torn down at once, so that the set-up median
  // has kSetupsPerSegment samples from every segment of the run.
  for (int i = 1; i < kSetupsPerSegment; ++i) {
    ServingStack spare;
    std::filesystem::remove_all(dir);
    SetupTimes t;
    if (!spare.Start(o, dir, fragments, rules_text, &t, error)) return false;
    pool->setups.push_back(t);
  }
  ServingStack stack;
  std::filesystem::remove_all(dir);
  SetupTimes setup;
  if (!stack.Start(o, dir, fragments, rules_text, &setup, error)) {
    return false;
  }
  pool->setups.push_back(setup);
  gfd::ServingStore& store = *stack.store;
  const uint16_t port = stack.server->port();
  if (segment == 0) {
    std::printf("%s: |V|=%zu |E|=%zu, %zu rules in %zu groups, halo "
                "radius %u, %d producers, %d live subscribers, segments of "
                "%zu batches per producer\n",
                o.workload.c_str(), stack.base->NumNodes(),
                stack.base->NumEdges(), stack.engine->NumRules(),
                stack.engine->NumGroups(), stack.radius, kProducers,
                kLiveSubscribers, kBatchesPerProducer);
  }
  const gfd::ServingMetricsSnapshot snap0 = store.MetricsSnapshot();
  std::vector<StreamGenerator> generators;
  for (int p = 0; p < kProducers; ++p) {
    generators.emplace_back(model, p, o.seed * 1000 + segment);
  }

  // ---- the stream.
  std::atomic<bool> go{false};
  std::atomic<uint64_t> target{UINT64_MAX};
  std::atomic<int64_t> hard_deadline{INT64_MAX};
  std::vector<std::vector<std::string>> streams(kProducers);
  std::vector<std::vector<Sample>> samples(kProducers);
  std::vector<std::string> producer_errors(kProducers);
  int64_t start = 0, deadline = 0;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      HttpClient c;
      if (!c.Connect(port, &producer_errors[p])) return;
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kBatchesPerProducer && NowNs() < deadline;
           ++i) {
        streams[p].push_back(generators[p].Next());
        Sample s;
        s.batch = i;
        std::string body;
        s.send_ns = NowNs();
        bool ok = c.Request("POST", "/ingest", streams[p][i], &s.status, &body);
        s.recv_ns = NowNs();
        if (!ok) s.status = -1;
        auto verdict = Json::Parse(body);
        if (s.status == 200 && verdict) {
          s.seq = static_cast<uint64_t>(verdict->Num("seq", 0));
        }
        samples[p].push_back(s);
        if (!ok) break;
      }
    });
  }
  // One thread reads both live SSE connections.
  threads.emplace_back([&] {
    std::vector<pollfd> fds;
    for (auto& s : stack.subs) fds.push_back({s->conn.fd(), POLLIN, 0});
    while (NowNs() < hard_deadline.load()) {
      bool done = true;
      for (auto& s : stack.subs) {
        done &= s->eof || (!s->log.seqs.empty() &&
                           s->log.seqs.back() >= target.load());
      }
      if (done) break;
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (size_t k = 0; k < fds.size(); ++k) {
        auto& s = *stack.subs[k];
        if (!s.eof && (fds[k].revents & (POLLIN | POLLHUP | POLLERR))) {
          DrainFrames(s.conn, s.parser, s.log, s.recv_ns, &s.eof);
        }
      }
    }
  });
  // Traced: the in-process subscription beside the SSE readers.
  std::vector<std::pair<uint64_t, int64_t>> inproc;
  if (o.trace) {
    threads.emplace_back([&, sub = stack.inproc_sub] {
      gfd::FeedEvent ev;
      while (NowNs() < hard_deadline.load()) {
        auto w = sub->Next(&ev, 20);
        if (w == gfd::FeedSubscription::Wait::kEvent) {
          inproc.emplace_back(ev.seq, NowNs());
          if (ev.seq >= target.load()) break;
        } else if (w == gfd::FeedSubscription::Wait::kTimeout) {
          if (!inproc.empty() && inproc.back().first >= target.load()) break;
        } else {
          break;
        }
      }
    });
  }
  start = NowNs();
  deadline = start + kSegmentCapNs;
  go.store(true);
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  int64_t stream_end = start;
  uint64_t last_seq = 0;
  for (const auto& v : samples) {
    for (const auto& s : v) {
      stream_end = std::max(stream_end, s.recv_ns);
      last_seq = std::max(last_seq, s.seq);
    }
  }
  target.store(last_seq);
  hard_deadline.store(NowNs() + 30'000'000'000LL);
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  for (int p = 0; p < kProducers; ++p) {
    r->checks.Expect(producer_errors[p].empty(),
                     "[seqs] producer could not connect: " +
                         producer_errors[p]);
  }
  for (auto& s : stack.subs) s->conn.Close();

  // ---- catch-up: a fresh subscriber replays the whole feed.
  SubscriberLog catchup;
  catchup.name = "catch-up";
  {
    HttpClient c;
    SseParser parser;
    std::vector<int64_t> recv_ns;
    bool eof = false;
    int status = 0;
    int64_t t0 = NowNs();
    std::string target_path = "/feed?cursor=0&max_events=" +
                              std::to_string(std::max<uint64_t>(1, last_seq));
    if (c.Connect(port, error) && c.OpenStream(target_path, &status) &&
        status == 200) {
      int64_t limit = t0 + 60'000'000'000LL;
      while (!eof && catchup.seqs.size() < last_seq && NowNs() < limit) {
        DrainFrames(c, parser, catchup, recv_ns, &eof);
      }
    }
    pool->catchup_per_s.push_back(last_seq / std::max(1e-9, SecondsSince(t0)));
  }
  if (o.trace) {
    std::vector<gfd::FeedEvent> replay;
    int64_t t0 = NowNs();
    auto sub = stack.feed->Subscribe(0, 1u << 20, &replay);
    pool->feed_replay_s.push_back(SecondsSince(t0));
    stack.feed->Unsubscribe(sub);
  }
  Json status_doc;
  {
    HttpClient c;
    int code = 0;
    std::string body;
    if (c.Connect(port, error) &&
        c.Request("GET", "/status", "", &code, &body)) {
      if (auto doc = Json::Parse(body)) status_doc = std::move(*doc);
    }
  }
  stack.Stop();

  // ---- checks.
  ServingOutputs out;
  out.last_seq = store.last_seq();
  std::vector<std::pair<uint64_t, const std::string*>> applied;
  std::map<uint64_t, int64_t> send_by_seq;
  uint64_t posts = 0, failed_posts = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (const auto& s : samples[p]) {
      ++posts;
      if (s.status != 200 || s.seq == 0) {
        ++failed_posts;
        continue;
      }
      out.acked_seqs.push_back(s.seq);
      applied.emplace_back(s.seq, &streams[p][s.batch]);
      send_by_seq[s.seq] = s.send_ns;
      pool->ingest_ms.push_back((s.recv_ns - s.send_ns) * 1e-6);
    }
  }
  // A producer stopped by the stream time limit or a dropped
  // connection leaves batches unsent; they count as failed requests.
  const uint64_t unsent = kProducers * kBatchesPerProducer - posts;
  posts += unsent;
  failed_posts += unsent;
  std::sort(applied.begin(), applied.end());
  for (const auto& [seq, batch] : applied) {
    std::string err;
    if (!model.Apply(*batch, &err)) {
      r->checks.Expect(false,
                       "[model] seq " + std::to_string(seq) + ": " + err);
      break;
    }
  }
  gfd::PropertyGraph final_graph = store.MaterializeCurrent();
  out.model_diff = model.Diff(final_graph, 10);
  out.initial = CountByRulePivot(
      gfd::DetectNaive(*stack.base, stack.engine->rules()));
  out.final_naive =
      CountByRulePivot(gfd::DetectNaive(final_graph, stack.engine->rules()));
  out.evictions = static_cast<uint64_t>(status_doc.Num("evictions", 0));
  for (auto& s : stack.subs) {
    for (size_t i = 0; i < s->log.seqs.size(); ++i) {
      auto it = send_by_seq.find(s->log.seqs[i]);
      if (it != send_by_seq.end()) {
        pool->delivery_ms.push_back((s->recv_ns[i] - it->second) * 1e-6);
      }
    }
    out.subscribers.push_back(s->log);
  }
  out.subscribers.push_back(catchup);
  CheckServing(out, r->checks);
  r->checks.Expect(failed_posts == 0,
                   "[posts] " + std::to_string(failed_posts) + " of " +
                       std::to_string(posts) +
                       " /ingest requests failed or were not sent");

  uint64_t received = 0;
  for (const auto& s : out.subscribers) {
    received += std::min<uint64_t>(s.seqs.size(), out.last_seq);
  }
  const uint64_t expected = out.subscribers.size() * out.last_seq;
  r->attempted += posts + expected;
  r->failed += failed_posts + (expected - received);
  pool->acked += out.acked_seqs.size();
  std::vector<double> mine(pool->ingest_ms.end() - out.acked_seqs.size(),
                           pool->ingest_ms.end());
  pool->segment_p50_ms.push_back(Percentile(mine, 0.5));
  pool->segment_batches_per_s.push_back(
      out.acked_seqs.size() / std::max(1e-9, (stream_end - start) * 1e-9));
  std::printf("  segment %d: set-up %.1f ms (init %.1f, open %.1f, prime "
              "%.1f), %zu batches, ingest p50 %.2f ms, planner "
              "full/incremental %.0f/%.0f, compactions %.0f\n",
              segment, setup.setup_s * 1e3, setup.init_s * 1e3,
              setup.open_s * 1e3, setup.prime_s * 1e3,
              out.acked_seqs.size(), pool->segment_p50_ms.back(),
              status_doc.Num("planner_full", 0),
              status_doc.Num("planner_incremental", 0),
              status_doc.Num("compactions", 0));

  if (o.trace) {
    std::map<uint64_t, int64_t> inproc_by_seq(inproc.begin(), inproc.end());
    for (const auto& [seq, t] : inproc) {
      auto it = send_by_seq.find(seq);
      if (it != send_by_seq.end()) {
        pool->feed_ms.push_back((t - it->second) * 1e-6);
      }
    }
    for (auto& s : stack.subs) {
      for (size_t i = 0; i < s->log.seqs.size(); ++i) {
        auto it = inproc_by_seq.find(s->log.seqs[i]);
        if (it != inproc_by_seq.end()) {
          pool->sse_ms.push_back((s->recv_ns[i] - it->second) * 1e-6);
        }
      }
    }
    const gfd::ServingMetricsSnapshot snap1 = store.MetricsSnapshot();
    auto& ts = *stack.timed;
    auto& hs = stack.handler_stats;
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(pool->handler_ms, hs.handler_ms);
    append(pool->wait_ms, hs.wait_ms);
    append(pool->append_and_diff_ms, ts.append_and_diff_ms);
    append(pool->overlay_ops, ts.overlay_ops);
    append(pool->compact_ms, ts.compact_ms);
    pool->planner_full += status_doc.Num("planner_full", 0);
    pool->planner_incremental += status_doc.Num("planner_incremental", 0);
    pool->groups_scanned += status_doc.Num("groups_scanned", 0);
    pool->groups_skipped += status_doc.Num("groups_skipped", 0);
    pool->shipped_bytes += snap1.bytes_shipped - snap0.bytes_shipped;
    pool->maintenance_ops += snap1.ops_maintenance - snap0.ops_maintenance;
    pool->messages += snap1.messages - snap0.messages;
    if (replay_twins) {
      int64_t t_full = NowNs();
      stack.engine->Detect(final_graph);
      r->Set("detect.full_s", SecondsSince(t_full), "s");
      std::vector<const std::string*> batches;
      for (const auto& a : applied) batches.push_back(a.second);
      if (!ReplayOnTwins(o, fragments, stack, batches, r, error)) return false;
    }
  }
  if (keep) *keep = std::move(out);
  return true;
}

}  // namespace

bool RunServing(const Options& o, size_t fragments, RunResult* r,
                std::string* error, ServingOutputs* keep) {
  std::string graph_text, rules_text;
  if (!ReadFile(Path(o, "graph.tsv"), &graph_text, error) ||
      !ReadFile(Path(o, "rules.gfd"), &rules_text, error)) {
    return false;
  }
  auto model = GraphModel::Parse(graph_text, error);
  if (!model) return false;
  Pooled pool;
  // Whole segments until the run's time is spent; the twin-store
  // replays (traced runs) and the captured outputs come from the first.
  const int64_t t_run = NowNs();
  for (int seg = 0; seg == 0 || SecondsSince(t_run) < o.seconds; ++seg) {
    if (!RunSegment(o, fragments, seg, rules_text, *model,
                    /*replay_twins=*/seg == 0, &pool, r, error,
                    seg == 0 ? keep : nullptr)) {
      return false;
    }
  }
  const double rss_mb = PeakRssMb();
  const double setup_s = MedianOf(pool.setups, &SetupTimes::setup_s);
  // Medians over segments: a burst of interference that slows one
  // segment moves neither figure. Throughput is reported, not gated: in
  // a closed loop it is producers / mean latency, so it adds the tail's
  // noise and little else to the gated median.
  const double batches_per_s = Median(pool.segment_batches_per_s);
  const double p50 = Median(pool.segment_p50_ms);
  r->Set("setup_s", setup_s, "s");
  r->Set("peak_rss_mb", rss_mb, "MB");
  r->Set("op_p50_ms", p50, "ms");

  r->Report("setup_s", setup_s, "s");
  r->Report("peak_rss_mb", rss_mb, "MB");
  r->Report("ingest_batches_per_s", batches_per_s, "1/s");
  r->Report("ingest_p50_ms", p50, "ms");
  r->Report("ingest_p99_ms", Percentile(pool.ingest_ms, 0.99), "ms");
  r->Report("ingest_samples", static_cast<double>(pool.ingest_ms.size()),
            "count");
  r->Report("delivery_p50_ms", Percentile(pool.delivery_ms, 0.50), "ms");
  r->Report("delivery_p99_ms", Percentile(pool.delivery_ms, 0.99), "ms");
  r->Report("delivery_samples", static_cast<double>(pool.delivery_ms.size()),
            "count");
  r->Report("catchup_events_per_s", Median(pool.catchup_per_s), "1/s");
  if (pool.ingest_ms.size() < 1000) {
    std::printf("note: %zu ingest samples; p99 has fewer than ten samples "
                "beyond it\n",
                pool.ingest_ms.size());
  }

  if (o.trace) {
    const double batches = std::max<double>(1, pool.acked);
    r->Set("graph.load_s", MedianOf(pool.setups, &SetupTimes::load_s), "s");
    r->Set("net.ingest_handler_ms", Mean(pool.handler_ms), "ms");
    r->Set("net.ingest_transport_ms",
           Mean(pool.ingest_ms) - Mean(pool.handler_ms), "ms");
    r->Set("net.handler_wait_ms", Mean(pool.wait_ms), "ms");
    r->Set("net.sse_delivery_ms", Percentile(pool.sse_ms, 0.5), "ms");
    r->Set("serve.append_and_diff_ms",
           Percentile(pool.append_and_diff_ms, 0.5), "ms");
    r->Set("serve.append_and_diff_p99_ms",
           Percentile(pool.append_and_diff_ms, 0.99), "ms");
    r->Set("serve.compact_ms", Mean(pool.compact_ms), "ms");
    r->Set("serve.compactions", static_cast<double>(pool.compact_ms.size()),
           "count");
    r->Set("serve.overlay_ops_mean", Mean(pool.overlay_ops), "ops");
    r->Set("serve.feed_delivery_ms", Percentile(pool.feed_ms, 0.5), "ms");
    r->Set("serve.feed_replay_s", Median(pool.feed_replay_s), "s");
    r->Set("serve.open_s", MedianOf(pool.setups, &SetupTimes::open_s), "s");
    r->Set("serve.shipped_bytes_per_batch", pool.shipped_bytes / batches, "B");
    r->Set("serve.maintenance_ops_per_batch", pool.maintenance_ops / batches,
           "ops");
    r->Set("serve.messages_per_batch", pool.messages / batches, "count");
    r->Set("detect.prime_s", MedianOf(pool.setups, &SetupTimes::prime_s),
           "s");
    r->Set("detect.planner_full_decisions", pool.planner_full, "count");
    r->Set("detect.planner_incremental_decisions", pool.planner_incremental,
           "count");
    r->Set("detect.groups_scanned", pool.groups_scanned, "count");
    r->Set("detect.groups_skipped", pool.groups_skipped, "count");
  }
  return true;
}

}  // namespace perfbench
