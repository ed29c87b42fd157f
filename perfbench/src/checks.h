// Output checks, each computed apart from the code path it judges:
// the serving checks from what the clients received plus the
// benchmark's own graph model and the DetectNaive oracle, the discovery
// checks from the two miners against each other, DetectNaive, and
// supports recounted from raw matcher output. Every failure message
// starts with its check's tag ("[feed-counts]", ...) so the self-test
// can assert which check turned red.
#ifndef GFD_PERFBENCH_CHECKS_H_
#define GFD_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/seqdis.h"
#include "detect/engine.h"
#include "gfd/gfd.h"
#include "graph/property_graph.h"
#include "harness.h"
#include "model.h"

namespace perfbench {

/// Violations per (rule index, pivot).
using PairCounts = std::map<std::pair<uint32_t, uint64_t>, int64_t>;
PairCounts CountByRulePivot(const gfd::DetectionResult& r);

/// What one SSE subscriber received, in arrival order.
struct SubscriberLog {
  std::string name;
  std::vector<uint64_t> seqs;
  std::vector<std::string> data;  ///< JSON data line of each event
  bool evicted = false;
};

/// Everything the serving checks read, captured at the end of a stream.
struct ServingOutputs {
  std::vector<uint64_t> acked_seqs;  ///< seq of every 200 verdict
  uint64_t last_seq = 0;             ///< store's last_seq after the stream
  std::vector<SubscriberLog> subscribers;  ///< live ones, then catch-up
  PairCounts initial;      ///< DetectNaive on the base graph
  PairCounts final_naive;  ///< DetectNaive on MaterializeCurrent()
  std::vector<std::string> model_diff;  ///< GraphModel::Diff result
  uint64_t evictions = 0;               ///< /status evictions
};

/// seqs contiguous from 1, every subscriber complete and in order, feed
/// counts == DetectNaive, store state == model.
void CheckServing(const ServingOutputs& out, Failures& f);

/// Everything the discovery checks read for one round.
struct DiscoveryOutputs {
  gfd::DiscoveryResult par;
  gfd::DiscoveryResult seq;
  std::vector<gfd::Gfd> cover;         ///< ParCover(par)
  std::vector<gfd::Gfd> cover_again;   ///< ParCover(cover)
};

/// SeqDis == ParDis, every GFD holds (DetectNaive), positive supports
/// >= sigma (recounted), cover within the discovered set and a fixed
/// point of ParCover, no budget trip.
void CheckDiscovery(const gfd::PropertyGraph& g,
                    const gfd::DiscoveryConfig& cfg,
                    const DiscoveryOutputs& out, Failures& f);

/// Sorted one-line serializations: the identity used for set equality.
std::vector<std::string> Fingerprint(const gfd::PropertyGraph& g,
                                     const std::vector<gfd::Gfd>& gfds);
/// a within b, both sorted Fingerprints.
bool IsSubsetOf(const std::vector<std::string>& a,
                const std::vector<std::string>& b);

}  // namespace perfbench

#endif  // GFD_PERFBENCH_CHECKS_H_
