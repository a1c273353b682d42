#include "support/dataset.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "support/contracts.h"
#include "support/fault.h"
#include "support/strings.h"

namespace dr::support {

DataSet::DataSet(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  DR_REQUIRE(!columns_.empty());
}

const std::vector<double>& DataSet::row(std::size_t i) const {
  DR_REQUIRE(i < rows_.size());
  return rows_[i];
}

void DataSet::addRow(std::vector<double> values) {
  DR_REQUIRE_MSG(values.size() == columns_.size(),
                 "row width does not match column count");
  rows_.push_back(std::move(values));
}

void DataSet::sortByColumn(std::size_t col) {
  DR_REQUIRE(col < columns_.size());
  std::stable_sort(rows_.begin(), rows_.end(),
                   [col](const auto& a, const auto& b) {
                     return a[col] < b[col];
                   });
}

std::string DataSet::toTable(int precision) const {
  std::vector<std::vector<std::string>> cells;
  cells.push_back(columns_);
  for (const auto& r : rows_) {
    std::vector<std::string> line;
    line.reserve(r.size());
    for (double v : r) line.push_back(fmtDouble(v, precision));
    cells.push_back(std::move(line));
  }
  std::vector<std::size_t> width(columns_.size(), 0);
  for (const auto& line : cells)
    for (std::size_t c = 0; c < line.size(); ++c)
      width[c] = std::max(width[c], line[c].size());

  std::size_t total = width.empty() ? 0 : 2 * (width.size() - 1);
  for (std::size_t w : width) total += w;

  std::string out = "== " + title_ + " ==\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t c = 0; c < cells[i].size(); ++c) {
      const std::string& cell = cells[i][c];
      out += std::string(width[c] - cell.size(), ' ');
      out += cell;
      if (c + 1 < cells[i].size()) out += "  ";
    }
    out += '\n';
    if (i == 0) out += std::string(total, '-') + "\n";
  }
  return out;
}

namespace {

/// One line per row, cells rendered straight into `out`.
void appendRows(std::string& out, const std::vector<std::vector<double>>& rows,
                char sep, int precision) {
  for (const auto& r : rows) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) out += sep;
      out += fmtDouble(r[c], precision);
    }
    out += '\n';
  }
}

}  // namespace

std::string DataSet::toCsv(int precision) const {
  std::string out = join(columns_, ",") + "\n";
  appendRows(out, rows_, ',', precision);
  return out;
}

std::string DataSet::toGnuplot(int precision) const {
  std::string out = "# " + title_ + "\n# " + join(columns_, " ") + "\n";
  appendRows(out, rows_, ' ', precision);
  return out;
}

Status DataSet::writeFileStatus(const std::string& path,
                                const std::string& text) {
  // Same-directory temp file so the final rename cannot cross a
  // filesystem boundary; rename is the commit point.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.good())
      return Status::error(StatusCode::IoError,
                           "cannot open output file: " + tmp);
    f << text;
    if (fault::shouldFail(fault::FaultSite::DatasetWrite))
      f.setstate(std::ios::badbit);
    f.flush();
    if (!f.good()) {
      f.close();
      std::remove(tmp.c_str());
      return Status::error(StatusCode::IoError, "write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::error(StatusCode::IoError,
                         "cannot rename " + tmp + " to " + path);
  }
  return Status::ok();
}

void DataSet::writeFile(const std::string& path, const std::string& text) {
  Status st = writeFileStatus(path, text);
  DR_REQUIRE_MSG(st.isOk(), st.message());
}

}  // namespace dr::support
