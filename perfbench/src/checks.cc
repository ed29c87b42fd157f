#include "checks.h"

#include <algorithm>
#include <unordered_set>

#include "gfd/serialize.h"
#include "match/matcher.h"
#include "parallel/cluster.h"
#include "parallel/parcover.h"
#include "wire.h"

namespace perfbench {

PairCounts CountByRulePivot(const gfd::DetectionResult& r) {
  PairCounts counts;
  for (const auto& v : r.violations) ++counts[{v.gfd_index, v.pivot}];
  return counts;
}

namespace {

std::string Seqs(uint64_t a, uint64_t b) {
  return std::to_string(a) + " vs " + std::to_string(b);
}

void CheckSubscriber(const SubscriberLog& s, uint64_t last_seq, Failures& f) {
  f.Expect(!s.evicted, "[subscriber] " + s.name + " was evicted");
  f.Expect(s.seqs.size() == last_seq,
           "[subscriber] " + s.name + " received " +
               Seqs(s.seqs.size(), last_seq) + " events");
  for (size_t i = 0; i < s.seqs.size(); ++i) {
    if (s.seqs[i] != i + 1) {
      f.Expect(false, "[subscriber] " + s.name + " event " +
                          std::to_string(i) + " has seq " +
                          std::to_string(s.seqs[i]) + ", expected " +
                          std::to_string(i + 1));
      return;
    }
  }
}

void CheckCounts(const SubscriberLog& s, const PairCounts& initial,
                 const PairCounts& final_naive, Failures& f) {
  PairCounts counts = initial;
  for (size_t i = 0; i < s.data.size(); ++i) {
    auto ev = ParseDiffEvent(s.data[i]);
    if (!ev || ev->first != s.seqs[i]) {
      f.Expect(false, "[feed-counts] " + s.name + " event " +
                          std::to_string(i) + " is malformed");
      return;
    }
    for (const FeedEntry& e : ev->second) {
      counts[{e.rule, e.pivot}] += e.added ? 1 : -1;
    }
  }
  std::erase_if(counts, [](const auto& kv) { return kv.second == 0; });
  size_t mismatched = 0;
  for (const auto& [key, n] : counts) {
    auto it = final_naive.find(key);
    if (it == final_naive.end() || it->second != n) ++mismatched;
  }
  for (const auto& [key, n] : final_naive) {
    if (!counts.contains(key)) ++mismatched;
  }
  f.Expect(mismatched == 0,
           "[feed-counts] " + s.name + ": " + std::to_string(mismatched) +
               " (rule, pivot) pair(s) where initial + A - R over the feed "
               "!= DetectNaive on the final graph");
}

}  // namespace

void CheckServing(const ServingOutputs& out, Failures& f) {
  std::vector<uint64_t> acked = out.acked_seqs;
  std::sort(acked.begin(), acked.end());
  bool contiguous = acked.size() == out.last_seq;
  for (size_t i = 0; contiguous && i < acked.size(); ++i) {
    contiguous = acked[i] == i + 1;
  }
  f.Expect(contiguous, "[seqs] acknowledged seqs are not exactly 1.." +
                           std::to_string(out.last_seq));
  f.Expect(out.evictions == 0, "[subscriber] server reports " +
                                   std::to_string(out.evictions) +
                                   " eviction(s)");
  for (const SubscriberLog& s : out.subscribers) {
    CheckSubscriber(s, out.last_seq, f);
    CheckCounts(s, out.initial, out.final_naive, f);
  }
  for (const std::string& d : out.model_diff) f.Expect(false, "[model] " + d);
}

std::vector<std::string> Fingerprint(const gfd::PropertyGraph& g,
                                     const std::vector<gfd::Gfd>& gfds) {
  std::vector<std::string> out;
  out.reserve(gfds.size());
  for (const auto& phi : gfds) out.push_back(gfd::SerializeGfd(phi, g));
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// Literal truth under a match, evaluated here rather than through
// gfd::MatchSatisfies so the support recount shares no code with the
// miners beyond the matcher itself.
bool Holds(const gfd::PropertyGraph& g, const gfd::Match& h,
           const gfd::Literal& l) {
  switch (l.kind) {
    case gfd::LiteralKind::kFalse:
      return false;
    case gfd::LiteralKind::kVarConst: {
      auto v = g.GetAttr(h[l.x], l.a);
      return v && *v == l.c;
    }
    case gfd::LiteralKind::kVarVar: {
      auto a = g.GetAttr(h[l.x], l.a);
      auto b = g.GetAttr(h[l.y], l.b);
      return a && b && *a == *b;
    }
  }
  return false;
}

/// Distinct pivots with a match satisfying X and l, counted up to `cap`.
uint64_t RecountSupport(const gfd::PropertyGraph& g, const gfd::Gfd& phi,
                        uint64_t cap) {
  gfd::CompiledPattern q(phi.pattern);
  uint64_t support = 0;
  for (gfd::NodeId v : q.PivotCandidates(g)) {
    bool found = false;
    q.ForEachMatchAtPivot(g, v, [&](const gfd::Match& h) {
      for (const auto& l : phi.lhs) {
        if (!Holds(g, h, l)) return true;
      }
      found = Holds(g, h, phi.rhs);
      return !found;
    });
    if (found && ++support >= cap) break;
  }
  return support;
}

}  // namespace

bool IsSubsetOf(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

void CheckDiscovery(const gfd::PropertyGraph& g,
                    const gfd::DiscoveryConfig& cfg,
                    const DiscoveryOutputs& out, Failures& f) {
  f.Expect(Fingerprint(g, out.par.positives) ==
               Fingerprint(g, out.seq.positives),
           "[seq-par] ParDis and SeqDis positives differ");
  f.Expect(Fingerprint(g, out.par.negatives) ==
               Fingerprint(g, out.seq.negatives),
           "[seq-par] ParDis and SeqDis negatives differ");
  f.Expect(!out.par.stats.budget_exceeded && !out.seq.stats.budget_exceeded,
           "[budget] a miner tripped its candidate budget");

  std::vector<gfd::Gfd> all = out.par.AllGfds();
  gfd::DetectOptions opts;
  opts.max_violations_per_gfd = 1;
  auto naive = gfd::DetectNaive(g, all, opts);
  std::unordered_set<uint32_t> broken;
  for (const auto& v : naive.violations) broken.insert(v.gfd_index);
  for (uint32_t i : broken) {
    f.Expect(false, "[holds] discovered GFD does not hold: " +
                        gfd::SerializeGfd(all[i], g));
  }

  for (const auto& phi : out.par.positives) {
    uint64_t support = RecountSupport(g, phi, cfg.support_threshold);
    f.Expect(support >= cfg.support_threshold,
             "[support] recounted support " + std::to_string(support) +
                 " < sigma for " + gfd::SerializeGfd(phi, g));
  }

  auto found = Fingerprint(g, all);
  auto cover = Fingerprint(g, out.cover);
  f.Expect(IsSubsetOf(cover, found),
           "[cover] the cover is not a subset of the discovered set");
  f.Expect(Fingerprint(g, out.cover_again) == cover,
           "[cover] ParCover of the cover changed it");
}

}  // namespace perfbench
