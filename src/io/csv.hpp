// CSV export for the generated datasets and analysis results, so the
// reproduced tables/figures can be re-plotted with external tooling
// (pandas/matplotlib/R) exactly like the paper's own BigQuery pulls.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "mlab/dataset.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"

namespace satnet::io {

/// Minimal RFC-4180-style CSV writer that appends typed fields to one
/// reused buffer and hands it to the stream in chunks of about
/// kFlushBytes, so it never holds more than one chunk of the file.
/// Fields containing commas, quotes, or newlines are quoted; doubles are
/// written as printf("%.4f") would write them in the C locale.
///
///   csv.header({"a", "b"});
///   csv.field(1).field(2.5).end_row();   // "1,2.5000\n"
///   csv.flush();
class CsvWriter {
 public:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

  explicit CsvWriter(std::ostream& out);
  /// Flushes the complete rows still buffered; call flush() first when
  /// the caller needs to see the stream's state afterwards.
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Starts the file with the header row; must be the first call.
  void header(const std::vector<std::string_view>& columns);

  /// Appends one field to the current row.
  CsvWriter& field(std::string_view v);
  /// Without this overload a string literal would bind to field(bool).
  CsvWriter& field(const char* v) { return field(std::string_view(v)); }
  CsvWriter& field(double v);
  /// `0` or `1`.
  CsvWriter& field(bool v);
  /// Integers as std::to_string writes them. `char` is excluded so a
  /// character is never written as its code; pass a string_view.
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  CsvWriter& field(T v) {
    begin_field();
    char text[24];
    buf_.append(text, std::to_chars(text, text + sizeof(text), v).ptr);
    return *this;
  }

  /// Ends the current row; its field count must match the header. A
  /// rejected row is discarded.
  void end_row();

  /// Writes every complete row to the stream.
  void flush();

  std::size_t rows_written() const { return rows_; }

 private:
  void begin_field();

  std::ostream& out_;
  std::string buf_;
  std::size_t row_start_ = 0;  ///< offset of the current row in buf_
  std::size_t fields_ = 0;     ///< fields in the current row
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
};

/// NDT record table -> CSV (one row per speed test). Ground-truth columns
/// are included and marked with a "truth_" prefix.
std::size_t export_ndt(const mlab::NdtDataset& dataset, std::ostream& out);

/// RIPE traceroute summaries -> CSV.
std::size_t export_traceroutes(const ripe::AtlasDataset& dataset, std::ostream& out);

/// Pipeline outcome -> CSV (one row per operator).
std::size_t export_pipeline(const snoid::PipelineResult& result, std::ostream& out);

}  // namespace satnet::io
