// The three workloads. Each has a `gen` half that writes its inputs
// into a work directory from the seed (untimed, in its own process so
// input generation never shows in the run's memory or set-up time) and
// a `run` half that sets up, measures for the requested seconds, checks
// every output, and fills a RunResult.
#ifndef GFD_PERFBENCH_WORKLOADS_H_
#define GFD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "checks.h"
#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::string dir;  ///< work directory (inputs, stores, logs)
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t scale = 0;  ///< 0 = the workload's default graph scale
};

/// What a discover run checked, kept for the self-test.
struct DiscoveryCapture {
  gfd::PropertyGraph graph;
  gfd::DiscoveryConfig cfg;
  DiscoveryOutputs outputs;
};

/// DBpedia-like graph, ParDis+ParCover vs SeqDis+SeqCover.
bool GenDiscover(const Options& o, std::string* error);
bool RunDiscover(const Options& o, RunResult* r, std::string* error,
                 DiscoveryCapture* keep = nullptr);

/// YAGO2-like graph behind /ingest and /feed; `fragments` = 0 runs a
/// single GraphStore, otherwise a Coordinator with that many fragments.
bool GenServing(const Options& o, std::string* error);
bool RunServing(const Options& o, size_t fragments, RunResult* r,
                std::string* error, ServingOutputs* keep = nullptr);

/// Runs a short stream and a small discovery, then injects one fault
/// per check family and confirms each check turns red. Returns the
/// number of faults that went undetected (0 = pass).
int SelfTest(const Options& o);

}  // namespace perfbench

#endif  // GFD_PERFBENCH_WORKLOADS_H_
