#pragma once

// Shared helpers for the benchmark/reproduction harnesses: the standard
// problems, cluster configurations, and a fixed-width table printer whose
// output mirrors the paper's tables and figure series. Every harness prints
// a `# paper:` line stating the qualitative expectation from the paper so
// EXPERIMENTS.md can record paper-vs-measured side by side.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "pumg/method.hpp"
#include "pumg/nupdr.hpp"
#include "pumg/ooc.hpp"
#include "pumg/pcdm.hpp"
#include "pumg/updr.hpp"
#include "util/format.hpp"

namespace mrts::bench {

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n==== %s ====\n", title.c_str());
  std::printf("# paper: %s\n", paper.c_str());
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  template <typename... Args>
  void row(const Args&... args) {
    std::vector<std::string> cells{to_cell(args)...};
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), s.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::printf("|");
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
  }

  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

 private:
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  template <typename T>
  static std::string to_cell(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      return util::format("{:.2f}", v);
    } else {
      return util::format("{}", v);
    }
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Wall times of the repeated runs behind one table row. A row that one run
/// would leave at the mercy of a single scheduling hiccup prints the median
/// and the range of several, in milliseconds.
class Timings {
 public:
  void add_seconds(double seconds) { ms_.push_back(seconds * 1e3); }

  [[nodiscard]] double median_ms() const {
    std::vector<double> v = ms_;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  }
  /// "min-max", in milliseconds.
  [[nodiscard]] std::string range_ms() const {
    if (ms_.empty()) return "-";
    const auto [lo, hi] = std::minmax_element(ms_.begin(), ms_.end());
    return util::format("{:.2f}-{:.2f}", *lo, *hi);
  }

 private:
  std::vector<double> ms_;
};

/// Harness wrapper: prints the usual header/tables on stdout and mirrors
/// everything into a machine-readable `BENCH_<name>.json` in the working
/// directory so sweeps can be diffed and plotted without scraping tables.
/// The JSON is written by write_json() or, failing that, the destructor.
class BenchReport {
 public:
  BenchReport(std::string name, std::string title, std::string paper)
      : name_(std::move(name)),
        title_(std::move(title)),
        paper_(std::move(paper)) {
    print_header(title_, paper_);
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    if (!written_) write_json();
  }

  /// Free-form run metadata (string keyed) carried into the JSON.
  void set_meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }

  /// Prints the table and stages it for the JSON dump.
  void add(std::string label, Table table) {
    table.print();
    tables_.emplace_back(std::move(label), std::move(table));
  }

  bool write_json() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << obs::json_escape(name_) << "\",\n";
    out << "  \"title\": \"" << obs::json_escape(title_) << "\",\n";
    out << "  \"paper\": \"" << obs::json_escape(paper_) << "\",\n";
    out << "  \"metadata\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    \""
          << obs::json_escape(meta_[i].first) << "\": \""
          << obs::json_escape(meta_[i].second) << "\"";
    }
    out << (meta_.empty() ? "},\n" : "\n  },\n");
    out << "  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& [label, table] = tables_[t];
      out << (t == 0 ? "\n" : ",\n") << "    {\n      \"label\": \""
          << obs::json_escape(label) << "\",\n      \"columns\": [";
      const auto& cols = table.columns();
      for (std::size_t c = 0; c < cols.size(); ++c) {
        out << (c == 0 ? "" : ", ") << "\"" << obs::json_escape(cols[c])
            << "\"";
      }
      out << "],\n      \"rows\": [";
      const auto& rows = table.rows();
      for (std::size_t r = 0; r < rows.size(); ++r) {
        out << (r == 0 ? "\n" : ",\n") << "        [";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
          out << (c == 0 ? "" : ", ") << cell_json(rows[r][c]);
        }
        out << "]";
      }
      out << (rows.empty() ? "]" : "\n      ]") << "\n    }";
    }
    out << (tables_.empty() ? "]\n" : "\n  ]\n") << "}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
      return false;
    }
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  /// Cells that parse fully as a number are emitted raw (JSON number);
  /// everything else is a quoted string.
  static std::string cell_json(const std::string& cell) {
    double v = 0.0;
    const char* end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
    if (ec == std::errc() && ptr == end && !cell.empty()) return cell;
    return "\"" + obs::json_escape(cell) + "\"";
  }

  std::string name_;
  std::string title_;
  std::string paper_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, Table>> tables_;
  bool written_ = false;
};

/// The uniform workload (square domain) at a target element count.
inline pumg::MeshProblem uniform_problem(std::size_t target_elements) {
  // elements ~ area / (0.433 h^2) with area 1.
  const double h = std::sqrt(1.0 / (0.433 * static_cast<double>(target_elements)));
  return pumg::MeshProblem{
      mesh::make_unit_square(),
      {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(h)}};
}

/// The graded workload (pipe cross-section) at a target element count.
inline pumg::MeshProblem graded_problem(std::size_t target_elements) {
  const double annulus = 3.14159265 * (1.0 - 0.45 * 0.45);
  // Calibrated so the graded field produces roughly the target count.
  const double h_far =
      std::sqrt(annulus / (0.30 * static_cast<double>(target_elements)));
  return pumg::MeshProblem{
      mesh::make_pipe_section(1.0, 0.45, 48),
      {.min_angle_deg = 20.0,
       .size_field =
           mesh::graded_size({0.0, 1.0}, h_far / 4.0, h_far, 0.15, 1.4)}};
}

/// Cluster options for the OOC runs: in-memory spill by default so results
/// reflect the runtime rather than the host filesystem; pass kFile to
/// exercise real disk I/O.
inline core::ClusterOptions ooc_cluster(std::size_t nodes,
                                        std::size_t budget_kb,
                                        core::SpillMedium medium =
                                            core::SpillMedium::kFile) {
  core::ClusterOptions options;
  options.nodes = nodes;
  options.runtime.ooc.memory_budget_bytes = budget_kb << 10;
  options.spill = medium;
  options.max_run_time = std::chrono::seconds(300);
  return options;
}

}  // namespace mrts::bench
