// Shared scaffolding of the benchmark program: clocks, order statistics,
// the failure ledger every check writes to, and the result record each
// workload fills and main.cc prints as JSON.
#ifndef GFD_PERFBENCH_HARNESS_H_
#define GFD_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), comparable across threads.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double MsSince(int64_t t0) { return (NowNs() - t0) * 1e-6; }
inline double SecondsSince(int64_t t0) { return (NowNs() - t0) * 1e-9; }

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

/// Every output check reports here. A run is correct iff nothing was
/// recorded; the first few messages are printed so a red run says why.
class Failures {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (messages_.size() < 20) messages_.push_back(what);
    ++count_;
  }
  size_t count() const { return count_; }
  bool ok() const { return count_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::vector<std::string> messages_;
  size_t count_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one `perfbench run` measured. `metrics` holds the gated
/// end-to-end set (or, traced, the per-layer set); `report` holds every
/// figure under its workload-specific name, for the human-readable
/// table and the compare command.
struct RunResult {
  std::string workload;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Failures checks;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> report;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Report(const std::string& name, double value, const std::string& unit) {
    report[name] = {value, unit};
  }
};

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Whole-file read / write; false (and *error) on I/O failure.
bool ReadFile(const std::string& path, std::string* out, std::string* error);
bool WriteFile(const std::string& path, const std::string& data,
               std::string* error);

}  // namespace perfbench

#endif  // GFD_PERFBENCH_HARNESS_H_
