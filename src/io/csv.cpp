#include "io/csv.hpp"

#include <charconv>
#include <stdexcept>

#include "orbit/shell.hpp"

namespace satnet::io {

namespace {

// Longest "%.4f" text of a double: 309 integer digits of DBL_MAX, sign,
// point and four decimals.
constexpr std::size_t kMaxFixedChars = 320;

void append_escaped(std::string& buf, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    buf.append(field);
    return;
  }
  buf += '"';
  for (const char c : field) {
    if (c == '"') buf += '"';
    buf += c;
  }
  buf += '"';
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {
  buf_.reserve(kFlushBytes + kMaxFixedChars);
}

CsvWriter::~CsvWriter() {
  try {
    flush();
  } catch (...) {
    // A stream that throws on write has already set badbit, which is
    // where its owner looks for the failure.
  }
}

void CsvWriter::header(const std::vector<std::string_view>& columns) {
  if (columns_ != 0) throw std::logic_error("CsvWriter: header written twice");
  if (columns.empty()) throw std::invalid_argument("CsvWriter: empty header");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) buf_ += ',';
    append_escaped(buf_, columns[i]);
  }
  buf_ += '\n';
  columns_ = columns.size();
  row_start_ = buf_.size();
}

void CsvWriter::begin_field() {
  if (columns_ == 0) throw std::logic_error("CsvWriter: header not written");
  if (fields_++ != 0) buf_ += ',';
}

CsvWriter& CsvWriter::field(std::string_view v) {
  begin_field();
  append_escaped(buf_, v);
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  begin_field();
  // [charconv]: with a precision, to_chars writes what printf would in
  // the C locale, so this is "%.4f" without the locale or the varargs.
  char text[kMaxFixedChars];
  const auto res = std::to_chars(text, text + sizeof(text), v,
                                 std::chars_format::fixed, 4);
  buf_.append(text, res.ptr);
  return *this;
}

CsvWriter& CsvWriter::field(bool v) {
  begin_field();
  buf_ += v ? '1' : '0';
  return *this;
}

void CsvWriter::end_row() {
  if (columns_ == 0) throw std::logic_error("CsvWriter: header not written");
  if (fields_ != columns_) {
    buf_.resize(row_start_);
    fields_ = 0;
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  buf_ += '\n';
  fields_ = 0;
  ++rows_;
  row_start_ = buf_.size();
  if (buf_.size() >= kFlushBytes) flush();
}

void CsvWriter::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(row_start_));
  buf_.erase(0, row_start_);
  row_start_ = 0;
}

std::size_t export_ndt(const mlab::NdtDataset& dataset, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"t_sec", "asn", "client_ip", "prefix", "country", "latency_p5_ms",
              "latency_median_ms", "jitter_p95_ms", "download_mbps", "upload_mbps",
              "retrans_frac", "n_handoffs", "truth_operator", "truth_satellite",
              "truth_orbit"});
  for (const auto& r : dataset.records()) {
    csv.field(r.t_sec).field(r.asn).field(r.client_ip.to_string())
        .field(r.prefix.to_string()).field(r.country).field(r.latency_p5_ms)
        .field(r.latency_median_ms).field(r.jitter_p95_ms).field(r.download_mbps)
        .field(r.upload_mbps).field(r.retrans_frac).field(r.n_handoffs)
        .field(r.truth_operator).field(r.truth_satellite)
        .field(orbit::to_string(r.truth_orbit));
    csv.end_row();
  }
  csv.flush();
  return csv.rows_written();
}

std::size_t export_traceroutes(const ripe::AtlasDataset& dataset, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"probe_id", "t_sec", "root", "via_cgnat", "pop", "cgnat_rtt_ms",
              "dest_rtt_ms", "hop_count", "instance_city"});
  for (const auto& t : dataset.traceroutes) {
    csv.field(t.probe_id).field(t.t_sec).field(std::string_view(&t.root, 1))
        .field(t.via_cgnat).field(t.pop_name).field(t.cgnat_rtt_ms)
        .field(t.dest_rtt_ms).field(t.hop_count).field(t.instance_city);
    csv.end_row();
  }
  csv.flush();
  return csv.rows_written();
}

std::size_t export_pipeline(const snoid::PipelineResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"operator", "orbit", "multi_orbit", "identified", "retained",
              "covered_by_strict", "relax_threshold_ms", "precision", "recall"});
  for (const auto& op : result.operators) {
    csv.field(op.name).field(orbit::to_string(op.declared_orbit))
        .field(op.multi_orbit).field(op.identified()).field(op.retained.size())
        .field(op.covered_by_strict).field(op.relax_threshold_ms)
        .field(op.precision()).field(op.recall());
    csv.end_row();
  }
  csv.flush();
  return csv.rows_written();
}

}  // namespace satnet::io
