#include "fingerprint.hpp"

#include <fstream>
#include <thread>

#include "common/simd.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string fingerprint_json(const std::vector<std::string>& petd_flags) {
  std::string flags;
  for (const std::string& f : petd_flags) {
    flags += flags.empty() ? "" : " ";
    flags += f;
  }
  return "{\"cpu\": " + quoted(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_tier\": " +
         quoted(std::string(pet::to_string(pet::simd_tier()))) +
         ", \"simd_detected\": " +
         quoted(std::string(pet::to_string(pet::detected_simd_tier()))) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"petd_flags\": " + quoted(flags) + "}";
}

}  // namespace perfbench
