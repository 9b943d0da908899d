#include "runtime/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/ensure.hpp"

namespace pet::runtime {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value, int precision) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

BenchReport::BenchReport(std::string target, unsigned threads)
    : target_(std::move(target)), threads_(threads) {}

void BenchReport::add_row(const std::string& table,
                          const std::vector<std::string>& columns,
                          const std::vector<std::string>& cells) {
  expects(columns.size() == cells.size(),
          "BenchReport::add_row: columns/cells size mismatch");
  Row row;
  row.reserve(cells.size() + 1);
  row.emplace_back("table", table);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    row.emplace_back(columns[i], cells[i]);
  }
  rows_.push_back(std::move(row));
}

std::string BenchReport::rows_json() const {
  std::string out = "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r == 0 ? "\n" : ",\n";
    out += "    {";
    for (std::size_t f = 0; f < rows_[r].size(); ++f) {
      if (f != 0) out += ", ";
      out += '"' + json_escape(rows_[r][f].first) + "\": \"" +
             json_escape(rows_[r][f].second) + '"';
    }
    out += '}';
  }
  out += rows_.empty() ? "]" : "\n  ]";
  return out;
}

std::string BenchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"target\": \"" + json_escape(target_) + "\",\n";
  out += "  \"threads\": " + std::to_string(threads_) + ",\n";
  out += "  \"wall_seconds\": " + json_number(wall_seconds_) + ",\n";
  if (truncated_) {
    out += "  \"truncated\": true,\n";
  }
  if (!metrics_json_.empty()) {
    out += "  \"metrics\": " + metrics_json_ + ",\n";
  }
  out += "  \"rows\": " + rows_json() + "\n";
  out += "}\n";
  return out;
}

void BenchReport::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("BenchReport: cannot open '" + path +
                             "' for writing");
  }
  file << to_json();
  if (!file) {
    throw std::runtime_error("BenchReport: short write to '" + path + "'");
  }
}

}  // namespace pet::runtime
