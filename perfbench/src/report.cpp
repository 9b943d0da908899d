#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Report::set_layer(Metric metric) {
  for (Metric& m : per_layer) {
    if (m.name == metric.name) {
      m = std::move(metric);
      return;
    }
  }
  per_layer.push_back(std::move(metric));
}

std::string Report::describe(bool trace) const {
  std::string out;
  char line[256];
  const auto print = [&](const char* kind, const Metric& m) {
    std::snprintf(line, sizeof line, "%-6s %-26s %16.6g %-6s n=%-9llu %s\n",
                  kind, m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  m.alias.c_str());
    out += line;
  };
  for (const Metric& m : trace ? per_layer : end_to_end) print("metric", m);
  if (!trace) {
    for (const Metric& m : info) print("info", m);
  }
  std::snprintf(line, sizeof line,
                "ops attempted=%llu failed=%llu fail_share=%.6g\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 1.0);
  out += line;
  for (const std::string& p : problems) out += "problem " + p + "\n";
  return out;
}

std::string Report::json(bool trace) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : trace ? per_layer : end_to_end) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
