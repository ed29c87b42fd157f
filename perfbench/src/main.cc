// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench gen      --workload W --dir D --seed S [--seconds N]
//   perfbench run      --workload W --dir D --seconds N [--trace 0|1]
//                      --out result.json
//   perfbench selftest --dir D
//
// Workloads: discover, ingest_single, ingest_f4. `gen` writes the
// seed's inputs into D; `run` measures, checks, prints a table and
// writes the result JSON that perfbench/run.py turns into the
// benchmark's output line. Usually run through run.py.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        Failures& f) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    f.Expect(std::isfinite(m.value), "[metric] " + name + " is not finite");
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + num +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run|selftest --workload "
               "discover|ingest_single|ingest_f4 --dir D [--seed S] "
               "[--seconds N] [--trace 0|1] [--scale N] [--out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  std::string verb = argv[1];
  Options o;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--dir") {
      o.dir = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v);
    } else if (flag == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (flag == "--scale") {
      o.scale = std::strtoull(v, nullptr, 10);
    } else if (flag == "--out") {
      out_path = v;
    } else {
      return Usage();
    }
  }
  if (o.dir.empty()) return Usage();
  std::filesystem::create_directories(o.dir);
  if (verb == "selftest") return SelfTest(o) == 0 ? 0 : 1;

  const bool discover = o.workload == "discover";
  size_t fragments = 0;
  if (o.workload == "ingest_f4") {
    fragments = 4;
  } else if (!discover && o.workload != "ingest_single") {
    return Usage();
  }
  std::string error;
  if (verb == "gen") {
    bool ok = discover ? GenDiscover(o, &error) : GenServing(o, &error);
    if (!ok) std::fprintf(stderr, "gen failed: %s\n", error.c_str());
    return ok ? 0 : 1;
  }
  if (verb != "run" || out_path.empty()) return Usage();

  RunResult r;
  r.workload = o.workload;
  r.traced = o.trace;
  bool ok = discover ? RunDiscover(o, &r, &error)
                     : RunServing(o, fragments, &r, &error);
  if (!ok) {
    std::fprintf(stderr, "%s run failed: %s\n", o.workload.c_str(),
                 error.c_str());
    return 1;
  }
  PrintTable(o.trace ? "per-layer (traced run):" : "gated end-to-end:",
             r.metrics);
  PrintTable("report:", r.report);
  std::string json = "{\"workload\":" + JsonString(r.workload) +
                     ",\"traced\":" + (r.traced ? "true" : "false");
  std::string metrics = MetricsJson(r.metrics, r.checks);
  std::string report = MetricsJson(r.report, r.checks);
  std::printf("operations: %llu attempted, %llu failed; checks: %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.checks.ok() ? "all passed" : "FAILED");
  json += ",\"correct\":" + std::string(r.checks.ok() ? "true" : "false") +
          ",\"attempted\":" + std::to_string(r.attempted) +
          ",\"failed\":" + std::to_string(r.failed) + ",\"failures\":[";
  for (size_t i = 0; i < r.checks.messages().size(); ++i) {
    std::printf("  check failed: %s\n", r.checks.messages()[i].c_str());
    json += (i ? "," : "") + JsonString(r.checks.messages()[i]);
  }
  json += "],\"metrics\":" + metrics + ",\"report\":" + report + "}\n";
  if (!WriteFile(out_path, json, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  return 0;
}
