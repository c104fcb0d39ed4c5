// The BigQuery-like NDT record table plus grouping/selection helpers used
// by the identification pipeline and the paper report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mlab/ndt.hpp"

namespace satnet::mlab {

class NdtDataset {
 public:
  void add(NdtRecord record) { records_.push_back(std::move(record)); }
  void reserve(std::size_t n) { records_.reserve(n); }
  /// Appends another dataset's records (shard merge). Order-preserving.
  void append(NdtDataset&& other);

  /// Order-sensitive FNV-1a fingerprint over every field of every
  /// record. Two datasets hash equal iff they are bit-identical, which
  /// is what the runtime's determinism tests assert across thread
  /// counts.
  std::uint64_t hash() const;

  const std::vector<NdtRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Indices of records grouped by originating ASN.
  std::map<bgp::Asn, std::vector<std::size_t>> by_asn() const;
  /// Indices grouped by client /24 within one ASN set.
  std::map<net::Prefix24, std::vector<std::size_t>> by_prefix(
      const std::vector<std::size_t>& subset) const;

  /// Extracts one field across a subset of records.
  std::vector<double> field(const std::vector<std::size_t>& subset,
                            double NdtRecord::* member) const;
  /// All indices.
  std::vector<std::size_t> all() const;
  /// Indices matching a predicate.
  std::vector<std::size_t> select(
      const std::function<bool(const NdtRecord&)>& pred) const;

 private:
  std::vector<NdtRecord> records_;
};

}  // namespace satnet::mlab
