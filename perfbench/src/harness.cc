#include "harness.h"

#include <sys/resource.h>

#include <fstream>
#include <sstream>

namespace perfbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  *out = std::move(os).str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  out.close();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
