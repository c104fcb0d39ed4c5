#include "io/report.hpp"

#include "io/text.hpp"
#include "snoid/analysis.hpp"
#include "snoid/pop_analysis.hpp"
#include "stats/cdf.hpp"

namespace satnet::io {

std::string study_report(const mlab::NdtDataset& dataset,
                         const snoid::PipelineResult& result,
                         const ripe::AtlasDataset& atlas,
                         const ReportOptions& options) {
  std::string out;
  out += "# SNO performance study report\n\n";
  appendf(out,
          "Dataset: %zu NDT speed tests; pipeline identified %zu operators "
          "out of %zu curated (fallback threshold %.1f ms).\n\n",
          dataset.size(), result.identified_operators, result.curated_operators,
          result.fallback_threshold_ms);

  if (options.include_operator_table) {
    out += "## Identified operators\n\n";
    out += "| operator | orbit | retained | strict | precision | recall |\n";
    out += "|---|---|---:|---|---:|---:|\n";
    for (const auto& op : result.operators) {
      if (!op.identified()) continue;
      appendf(out, "| %s | %s | %zu | %s | %.3f | %.3f |\n", op.name.c_str(),
              std::string(orbit::to_string(op.declared_orbit)).c_str(),
              op.retained.size(), op.covered_by_strict ? "yes" : "no",
              op.precision(), op.recall());
    }
    out += "\n";
  }

  if (options.include_orbit_summary) {
    out += "## Cross-orbit summary\n\n";
    out += "| orbit | tests | median latency | jitter variability | retrans |\n";
    out += "|---|---:|---:|---:|---:|\n";
    for (const auto& [orbit_class, subset] : snoid::retained_by_orbit(result)) {
      if (subset.empty()) continue;
      const auto lat = dataset.field(subset, &mlab::NdtRecord::latency_p5_ms);
      const auto jv = snoid::jitter_variability(dataset, subset);
      const auto rt = dataset.field(subset, &mlab::NdtRecord::retrans_frac);
      appendf(out, "| %s | %zu | %.1f ms | %.2f | %.3f |\n",
              std::string(orbit::to_string(orbit_class)).c_str(), subset.size(),
              stats::median(lat), stats::median(jv), stats::median(rt));
    }
    out += "\n";
  }

  if (options.include_pop_analysis && !atlas.traceroutes.empty()) {
    out += "## Starlink PoP analysis (RIPE Atlas)\n\n";
    out += "| country | median PoP RTT |\n|---|---:|\n";
    for (const auto& row : snoid::pop_rtt_by_country(atlas, /*us_only=*/false)) {
      appendf(out, "| %s | %.1f ms |\n", row.key.c_str(), row.rtt.median);
    }
    out += "\nDetected PoP migrations:\n\n";
    for (const auto& m : snoid::detect_pop_migrations(atlas)) {
      appendf(out, "- probe %d (%s), day %.0f: %s -> %s (%.0f -> %.0f ms)\n",
              m.probe_id, m.country.c_str(), m.day, m.from_pop.c_str(),
              m.to_pop.c_str(), m.rtt_before_ms, m.rtt_after_ms);
    }
    out += "\n";
  }

  return out;
}

}  // namespace satnet::io
