// The `discover` workload: a DBpedia-like graph mined by ParDis (4
// workers, load balancing on) then ParCover -- the time to a reduced
// cover -- and, in the same rounds, by SeqDis then SeqCover as the
// single-threaded baseline, with the Fig. 5 configuration of the
// repository's benches (bench/bench_util.h: k = 3, sigma scaled to
// |V|). The serving layers stay idle. Every round repeats the same four
// runs, so attempted = 4 x rounds.
#include <optional>
#include <sstream>

#include "bench_util.h"
#include "core/cover.h"
#include "graph/loader.h"
#include "parallel/parcover.h"
#include "parallel/pardis.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::string GraphPath(const Options& o) { return o.dir + "/graph.tsv"; }

constexpr size_t kDefaultScale = 1000;  // |V| = 2.9k, |E| = 11.5k
constexpr int kLoadsPerRound = 4;       // set-up repetitions per round

/// One timed set-up: the graph TSV load.
std::optional<gfd::PropertyGraph> TimedLoad(const Options& o,
                                            std::vector<double>* loads,
                                            std::string* error) {
  int64_t t0 = NowNs();
  auto g = gfd::LoadGraphTsvFile(GraphPath(o), error);
  loads->push_back(SecondsSince(t0));
  return g;
}

}  // namespace

bool GenDiscover(const Options& o, std::string* error) {
  // The graph does not depend on the seed. When the per-level pattern
  // cap bites (core.level_cap_hit), which patterns survive depends on
  // node numbering, so even a seed-driven renumbering of this same graph
  // changes the discovered set and the work by up to 3x; a fixed graph
  // keeps the workload one workload.
  auto g = gfd::bench::DbpediaLike(o.scale ? o.scale : kDefaultScale);
  std::ostringstream os;
  gfd::SaveGraphTsv(g, os);
  return WriteFile(GraphPath(o), os.str(), error);
}

bool RunDiscover(const Options& o, RunResult* r, std::string* error,
                 DiscoveryCapture* keep) {
  // Set-up is timed kLoadsPerRound times before every round, so its
  // median samples the whole run as the rounds do, not only its start.
  std::vector<double> loads;
  std::optional<gfd::PropertyGraph> g = TimedLoad(o, &loads, error);
  if (!g) return false;
  const gfd::DiscoveryConfig cfg = gfd::bench::ScaledConfig(*g);
  gfd::ParallelRunConfig pcfg;
  pcfg.workers = 4;
  pcfg.load_balance = true;
  std::printf("discover: |V|=%zu |E|=%zu k=%u sigma=%llu workers=%zu\n",
              g->NumNodes(), g->NumEdges(), cfg.k,
              static_cast<unsigned long long>(cfg.support_threshold),
              pcfg.workers);

  std::vector<double> par_ms, seq_ms, pardis_s, parcover_s, seqdis_s,
      seqcover_s, match_s, validate_s, skew, shipped_mb, messages;
  gfd::DiscoveryStats seq_stats;
  gfd::CoverStats seq_cover_stats;
  size_t gfds_found = 0;
  std::vector<std::string> first_par, first_seq, first_cover;
  int64_t measured_ns = 0;
  int rounds = 0;
  while (rounds == 0 || measured_ns < o.seconds * 1e9) {
    for (int i = 0; i < kLoadsPerRound; ++i) {
      if (!TimedLoad(o, &loads, error)) return false;
    }
    gfd::ClusterStats cs;
    int64_t t0 = NowNs();
    gfd::DiscoveryResult par = gfd::ParDis(*g, cfg, pcfg, &cs);
    int64_t t1 = NowNs();
    std::vector<gfd::Gfd> cover = gfd::ParCover(par.AllGfds(), pcfg);
    int64_t t2 = NowNs();
    gfd::DiscoveryResult seq = gfd::SeqDis(*g, cfg);
    int64_t t3 = NowNs();
    gfd::CoverStats scs;
    std::vector<gfd::Gfd> seq_cover = gfd::SeqCover(seq.AllGfds(), &scs);
    int64_t t4 = NowNs();
    measured_ns += t4 - t0;
    r->attempted += 4;  // ParDis, ParCover, SeqDis, SeqCover

    par_ms.push_back((t2 - t0) * 1e-6);
    seq_ms.push_back((t4 - t2) * 1e-6);
    pardis_s.push_back((t1 - t0) * 1e-9);
    parcover_s.push_back((t2 - t1) * 1e-9);
    seqdis_s.push_back((t3 - t2) * 1e-9);
    seqcover_s.push_back((t4 - t3) * 1e-9);
    match_s.push_back(cs.match_seconds);
    validate_s.push_back(cs.validate_seconds);
    skew.push_back(cs.max_skew);
    shipped_mb.push_back(cs.bytes_shipped / 1048576.0);
    messages.push_back(static_cast<double>(cs.messages));

    auto par_print = Fingerprint(*g, par.AllGfds());
    auto seq_print = Fingerprint(*g, seq.AllGfds());
    auto cover_print = Fingerprint(*g, cover);
    if (rounds == 0) {
      // Full checks once; later rounds must reproduce round one.
      DiscoveryOutputs out;
      out.cover_again = gfd::ParCover(cover, pcfg);
      out.par = std::move(par);
      out.seq = std::move(seq);
      out.cover = std::move(cover);
      CheckDiscovery(*g, cfg, out, r->checks);
      r->checks.Expect(
          IsSubsetOf(Fingerprint(*g, seq_cover), seq_print),
          "[cover] the SeqCover cover is not a subset of SeqDis output");
      seq_stats = out.seq.stats;
      seq_cover_stats = scs;
      gfds_found = out.seq.NumGfds();
      first_par = std::move(par_print);
      first_seq = std::move(seq_print);
      first_cover = std::move(cover_print);
      if (keep) keep->outputs = std::move(out);
    } else {
      r->checks.Expect(par_print == first_par && seq_print == first_seq &&
                           cover_print == first_cover,
                       "[repeat] round " + std::to_string(rounds) +
                           " output differs from round 0");
    }
    ++rounds;
  }

  // The gated figures follow the single-threaded miner. A 4-worker BSP
  // run on a 4-vCPU guest stalls at every barrier whose worker the
  // hypervisor deschedules: across runs its median spread 0.57 (IQR over
  // median) where SeqDis+SeqCover's spread 0.04, so ParDis+ParCover is
  // reported (discover_s, parallel.*) but not gated.
  r->Set("setup_s", Median(loads), "s");
  r->Set("peak_rss_mb", PeakRssMb(), "MB");
  r->Set("op_p50_ms", Median(seq_ms), "ms");

  r->Report("setup_s", Median(loads), "s");
  r->Report("peak_rss_mb", PeakRssMb(), "MB");
  r->Report("discover_s", Median(par_ms) * 1e-3, "s");
  r->Report("discover_seq_s", Median(seq_ms) * 1e-3, "s");
  r->Report("rounds", rounds, "count");
  r->Report("gfds_found", static_cast<double>(gfds_found), "count");
  r->Report("cover_size", static_cast<double>(first_cover.size()), "count");

  if (o.trace) {
    r->Set("graph.load_s", Median(loads), "s");
    r->Set("core.seqdis_s", Median(seqdis_s), "s");
    r->Set("core.seqcover_s", Median(seqcover_s), "s");
    r->Set("core.patterns_spawned", seq_stats.patterns_spawned, "count");
    r->Set("core.candidates_generated", seq_stats.candidates_generated,
           "count");
    r->Set("core.candidates_validated", seq_stats.candidates_validated,
           "count");
    r->Set("core.gfds_found", static_cast<double>(gfds_found), "count");
    r->Set("core.cover_implication_tests",
           seq_cover_stats.implication_tests, "count");
    r->Set("core.level_cap_hit", seq_stats.level_cap_hit ? 1 : 0, "count");
    r->Set("parallel.pardis_s", Median(pardis_s), "s");
    r->Set("parallel.match_s", Median(match_s), "s");
    r->Set("parallel.validate_s", Median(validate_s), "s");
    r->Set("parallel.max_skew", Median(skew), "ratio");
    r->Set("parallel.bytes_shipped_mb", Median(shipped_mb), "MB");
    r->Set("parallel.messages", Median(messages), "count");
    r->Set("parallel.cover_s", Median(parcover_s), "s");
  }
  if (keep) {
    keep->graph = std::move(*g);
    keep->cfg = cfg;
  }
  return true;
}

}  // namespace perfbench
