// `perfbench selftest`: proves the output checks can fail. It captures
// the outputs of a short ingest_single stream and a small discovery,
// confirms they pass untouched, then injects one fault per check family
// -- a corrupted feed record, a dropped event, a planted GFD that does
// not hold -- and requires the matching check to report it.
#include <filesystem>

#include "workloads.h"

namespace perfbench {

namespace {

bool Caught(const Failures& f, const std::string& tag) {
  for (const auto& m : f.messages()) {
    if (m.rfind(tag, 0) == 0) return true;
  }
  return false;
}

int Expect(const char* fault, const Failures& f, const std::string& tag) {
  bool caught = Caught(f, tag);
  std::printf("  %-44s %s %s\n", fault, caught ? "caught by" : "NOT caught by",
              tag.c_str());
  return caught ? 0 : 1;
}

}  // namespace

int SelfTest(const Options& base) {
  std::string error;
  Options so = base;
  so.workload = "ingest_single";
  so.dir = base.dir + "/serving";
  so.seconds = 2.5;
  std::filesystem::create_directories(so.dir);
  ServingOutputs serving;
  RunResult sr;
  if (!GenServing(so, &error) ||
      !RunServing(so, /*fragments=*/0, &sr, &error, &serving)) {
    std::fprintf(stderr, "selftest: serving run failed: %s\n", error.c_str());
    return 1;
  }

  Options dopt = base;
  dopt.workload = "discover";
  dopt.dir = base.dir + "/discover";
  dopt.seconds = 0;  // one round
  dopt.scale = 300;
  std::filesystem::create_directories(dopt.dir);
  DiscoveryCapture disc;
  RunResult dr;
  if (!GenDiscover(dopt, &error) || !RunDiscover(dopt, &dr, &error, &disc)) {
    std::fprintf(stderr, "selftest: discover run failed: %s\n",
                 error.c_str());
    return 1;
  }

  std::printf("selftest:\n");
  int undetected = 0;
  std::printf("  %-44s %s\n", "untouched serving outputs",
              sr.checks.ok() ? "pass" : "FAIL");
  std::printf("  %-44s %s\n", "untouched discovery outputs",
              dr.checks.ok() ? "pass" : "FAIL");
  undetected += !sr.checks.ok() + !dr.checks.ok();
  if (serving.last_seq < 3) {
    std::printf("  too few batches to inject faults into\n");
    return 1;
  }

  {  // Corrupt one feed record: an entry's pivot no node has.
    ServingOutputs bad = serving;
    SubscriberLog& log = bad.subscribers.back();
    bool corrupted = false;
    for (std::string& data : log.data) {
      size_t at = data.find("\"pivot\":");
      if (at == std::string::npos) continue;
      size_t end = data.find_first_not_of("0123456789", at + 8);
      data.replace(at + 8, end - (at + 8), "4000000000");
      corrupted = true;
      break;
    }
    Failures f;
    CheckServing(bad, f);
    undetected += corrupted ? Expect("corrupted feed record", f, "[feed-counts]")
                            : 1;
  }
  {  // Drop one event from a live subscriber.
    ServingOutputs bad = serving;
    SubscriberLog& log = bad.subscribers.front();
    size_t mid = log.seqs.size() / 2;
    log.seqs.erase(log.seqs.begin() + mid);
    log.data.erase(log.data.begin() + mid);
    Failures f;
    CheckServing(bad, f);
    undetected += Expect("dropped event", f, "[subscriber]");
  }
  {  // Plant a GFD that does not hold: a mined x.A = c rule with c moved
     // to another value, added to both miners' outputs.
    DiscoveryOutputs bad = disc.outputs;
    const gfd::PropertyGraph& g = disc.graph;
    bool planted = false;
    for (const auto& phi : bad.par.positives) {
      if (phi.rhs.kind != gfd::LiteralKind::kVarConst) continue;
      gfd::Gfd wrong = phi;
      wrong.rhs.c = phi.rhs.c + 1 < g.values().size() ? phi.rhs.c + 1
                                                      : phi.rhs.c - 1;
      bad.par.positives.push_back(wrong);
      bad.seq.positives.push_back(wrong);
      planted = true;
      break;
    }
    Failures f;
    CheckDiscovery(g, disc.cfg, bad, f);
    undetected += planted ? Expect("planted GFD that does not hold", f,
                                   "[holds]")
                          : 1;
  }
  std::printf("selftest: %s\n", undetected ? "FAILED" : "every fault caught");
  return undetected;
}

}  // namespace perfbench
