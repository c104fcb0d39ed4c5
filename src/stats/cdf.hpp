// Empirical cumulative distribution functions.
//
// Several of the paper's figures (4b, 4c, 10c) are CDFs; the paper report
// prints them as fixed quantile grids so the series can be compared run-to-run.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace satnet::stats {

/// Empirical CDF over a 1-D sample.
class Cdf {
 public:
  explicit Cdf(std::span<const double> sample);

  /// P(X <= x).
  double at(double x) const;
  /// Inverse CDF under the same linear-interpolation convention as
  /// percentile_sorted: quantile(q) == percentile(sample, 100 * q).
  /// q is clamped to [0, 1]; returns NaN for an empty sample.
  double quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  const std::vector<double>& sorted() const { return sorted_; }

  /// (x, F(x)) pairs at `points` evenly spaced quantiles — a printable
  /// rendering of the curve.
  struct Point {
    double x = 0;
    double f = 0;
  };
  std::vector<Point> grid(std::size_t points = 20) const;

 private:
  std::vector<double> sorted_;
};

/// Formats a CDF as "p10=.. p25=.. p50=.. p75=.. p90=.." for report output.
std::string describe_cdf(const Cdf& cdf);

}  // namespace satnet::stats
