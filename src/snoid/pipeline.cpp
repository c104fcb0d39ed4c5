#include "snoid/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/sharded.hpp"
#include "stats/summary.hpp"
#include "synth/asdb.hpp"

namespace satnet::snoid {

namespace {

struct Candidate {
  std::string name;
  orbit::OrbitClass declared = orbit::OrbitClass::geo;
  bool multi_orbit = false;
  std::vector<bgp::Asn> asns;
};

TechWindow window_for(const Candidate& c, const PipelineConfig& cfg) {
  TechWindow w;
  switch (c.declared) {
    case orbit::OrbitClass::leo:
      w.lo_ms = cfg.leo_min_peak_ms;
      w.hi_ms = cfg.leo_window_max_ms;
      break;
    case orbit::OrbitClass::meo:
      w.lo_ms = cfg.meo_window_min_ms;
      w.hi_ms = cfg.meo_window_max_ms;
      break;
    case orbit::OrbitClass::geo:
      w.lo_ms = cfg.geo_min_peak_ms;
      w.hi_ms = 1e9;
      break;
  }
  if (c.multi_orbit) {
    // Multi-orbit (SES): MEO primary window plus a GEO window.
    w.lo2_ms = cfg.geo_min_peak_ms;
    w.hi2_ms = 1e9;
  }
  return w;
}

/// Steps 1-2: assemble the curated ASN-to-SNO map from the public
/// metadata emulators.
std::vector<Candidate> curate(PipelineResult& result) {
  std::set<bgp::Asn> candidate_asns;
  for (const auto& row : synth::asdb_satellite_category()) {
    candidate_asns.insert(row.asn);
  }
  result.asdb_category_asns = candidate_asns.size();

  // ASdb misses several well-known operators; search HE by name.
  static const char* kPopularNames[] = {"starlink", "viasat",   "hughes",
                                        "oneweb",   "ses",      "eutelsat",
                                        "intelsat", "telesat"};
  std::size_t added = 0;
  for (const char* name : kPopularNames) {
    for (const bgp::Asn asn : synth::he_bgp_search(name)) {
      if (candidate_asns.insert(asn).second) ++added;
    }
  }
  result.he_added_asns = added;

  // Manual curation: visit each ASN's website (IPInfo) and drop anything
  // that is not actually a satellite *network operator*.
  std::map<std::string, Candidate> by_operator;
  for (const bgp::Asn asn : candidate_asns) {
    const auto info = synth::ipinfo_lookup(asn);
    if (!info || info->kind != synth::EntityKind::sno) continue;
    Candidate& c = by_operator[info->organization];
    c.name = info->organization;
    c.declared = info->declared_orbit;
    c.multi_orbit = info->declared_multi_orbit;
    c.asns.push_back(asn);
  }
  std::vector<Candidate> out;
  out.reserve(by_operator.size());
  for (auto& [name, c] : by_operator) out.push_back(std::move(c));
  result.curated_operators = out.size();
  return out;
}

}  // namespace

PipelineResult run_pipeline(const mlab::NdtDataset& dataset,
                            const PipelineConfig& cfg) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& kde_clean =
      reg.counter("snoid.kde.clean", "ASNs whose KDE profile matched the declared tech");
  obs::Counter& kde_mixed =
      reg.counter("snoid.kde.mixed", "ASNs with mixed-access KDE profiles");
  obs::Counter& kde_incompatible = reg.counter(
      "snoid.kde.incompatible", "ASNs whose KDE profile contradicts the declared tech");
  obs::Counter& kde_no_data =
      reg.counter("snoid.kde.no_data", "ASNs with too few tests to judge");
  obs::Counter& prefixes_retained =
      reg.counter("snoid.prefixes_retained", "/24s surviving strict filtering");
  obs::Counter& prefixes_dropped =
      reg.counter("snoid.prefixes_dropped", "/24s rejected by strict filtering");

  PipelineResult result;
  // The serial stages are shards 0 (curate), 1 (index) and
  // 2 (relaxation) of the snoid.pipeline phase in the recorder stream.
  const std::vector<Candidate> candidates = [&] {
    obs::ShardScope stage("snoid.pipeline", 0);
    return curate(result);
  }();
  const auto by_asn = [&] {
    obs::ShardScope stage("snoid.pipeline", 1);
    return dataset.by_asn();
  }();

  // Ground-truth totals per operator (scoring only).
  std::map<std::string, std::size_t> truth_totals;
  for (const auto& rec : dataset.records()) {
    if (rec.truth_satellite) ++truth_totals[rec.truth_operator];
  }

  // ---- Steps 3 + 3b per operator: embarrassingly parallel (each shard
  // reads the shared dataset/index and writes only its own result). ----
  runtime::ShardedCampaign<OperatorResult> validation(
      candidates.size(),
      [&](std::size_t cand_index) {
    const Candidate& cand = candidates[cand_index];
    OperatorResult op;
    op.name = cand.name;
    op.declared_orbit = cand.declared;
    op.multi_orbit = cand.multi_orbit;
    const TechWindow window = window_for(cand, cfg);

    // ---- Step 3: KDE validation per ASN. ----
    std::vector<std::size_t> usable;  // record indices in clean/mixed ASNs
    std::vector<std::size_t> clean_only;
    for (const bgp::Asn asn : cand.asns) {
      const auto it = by_asn.find(asn);
      std::vector<double> latencies;
      if (it != by_asn.end()) {
        latencies = dataset.field(it->second, &mlab::NdtRecord::latency_p5_ms);
      }
      const AsnVerdict verdict =
          classify_asn(asn, latencies, window, cfg.min_tests_per_prefix);
      switch (verdict.cls) {
        case AsnClass::clean: kde_clean.add(1); break;
        case AsnClass::mixed: kde_mixed.add(1); break;
        case AsnClass::incompatible: kde_incompatible.add(1); break;
        case AsnClass::no_data: kde_no_data.add(1); break;
      }
      op.asn_verdicts.push_back(verdict);
      if (it == by_asn.end()) continue;
      if (verdict.cls == AsnClass::clean || verdict.cls == AsnClass::mixed ||
          verdict.cls == AsnClass::no_data) {
        // no_data ASNs ride along: too few tests to reject outright.
        usable.insert(usable.end(), it->second.begin(), it->second.end());
        if (verdict.cls != AsnClass::mixed) {
          clean_only.insert(clean_only.end(), it->second.begin(), it->second.end());
        }
      }
    }

    // ---- LEO/MEO single-orbit operators: ASN-level identification is
    // sufficient (the paper retains OneWeb/O3b/Starlink here). ----
    if (!cand.multi_orbit && cand.declared != orbit::OrbitClass::geo) {
      op.retained = clean_only;
      op.covered_by_strict = false;
      return op;
    }

    // ---- Step 3b: strict prefix filtering. ----
    const auto by_prefix = dataset.by_prefix(usable);
    double strict_min = std::numeric_limits<double>::max();
    for (const auto& [prefix, idxs] : by_prefix) {
      PrefixDecision d;
      d.prefix = prefix;
      d.n_tests = idxs.size();
      const auto lat = dataset.field(idxs, &mlab::NdtRecord::latency_p5_ms);
      d.min_latency_ms = *std::min_element(lat.begin(), lat.end());
      d.median_latency_ms = stats::median(lat);
      if (idxs.size() < cfg.min_tests_per_prefix) {
        d.reason = "fewer than 10 tests";
      } else if (d.min_latency_ms > cfg.geo_strict_ms) {
        d.retained_strict = true;
      } else if (cand.multi_orbit && d.min_latency_ms > cfg.meo_strict_ms &&
                 d.median_latency_ms < cfg.geo_strict_ms) {
        d.retained_strict = true;  // MEO-clean prefix of a multi-orbit SNO
      } else {
        d.reason = "sub-threshold latencies";
      }
      if (d.retained_strict) {
        op.covered_by_strict = true;
        strict_min = std::min(strict_min, d.min_latency_ms);
        prefixes_retained.add(1);
      } else {
        prefixes_dropped.add(1);
      }
      op.prefixes.push_back(std::move(d));
    }
    if (op.covered_by_strict) op.relax_threshold_ms = strict_min;

    // Retention happens in the second pass (needs the fallback threshold).
    op.retained = std::move(usable);
    return op;
  },
      "snoid.validation");
  result.operators = validation.run_with_report(cfg.threads, cfg.retry, nullptr);

  // ---- Step 3c: relaxation thresholds (cross-operator, serial). ----
  obs::ShardScope relax_stage("snoid.pipeline", 2);
  double fallback = std::numeric_limits<double>::max();
  for (const auto& op : result.operators) {
    if (op.covered_by_strict) fallback = std::min(fallback, op.relax_threshold_ms);
  }
  if (fallback == std::numeric_limits<double>::max()) fallback = cfg.geo_strict_ms;
  result.fallback_threshold_ms = fallback;

  for (auto& op : result.operators) {
    if (!op.multi_orbit && op.declared_orbit != orbit::OrbitClass::geo) {
      // LEO/MEO handled at ASN level above.
    } else {
      const double thr = op.covered_by_strict ? op.relax_threshold_ms : fallback;
      if (!op.covered_by_strict) op.relax_threshold_ms = thr;
      std::vector<std::size_t> kept;
      for (const std::size_t i : op.retained) {
        const auto& rec = dataset.records()[i];
        const bool geo_like = rec.latency_p5_ms >= thr;
        const bool meo_like = op.multi_orbit &&
                              rec.latency_p5_ms >= cfg.meo_window_min_ms &&
                              rec.latency_p5_ms < cfg.meo_window_max_ms;
        if (geo_like || meo_like) kept.push_back(i);
      }
      op.retained = std::move(kept);
    }
    // Ground-truth scoring.
    for (const std::size_t i : op.retained) {
      if (dataset.records()[i].truth_satellite) ++op.retained_truly_satellite;
    }
    const auto it = truth_totals.find(op.name);
    op.total_truly_satellite = it == truth_totals.end() ? 0 : it->second;
    if (op.identified()) ++result.identified_operators;
  }

  return result;
}

std::string describe(const PipelineResult& result) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "pipeline: %zu ASdb ASNs + %zu via HE -> %zu curated operators, "
                "%zu identified (fallback threshold %.1f ms)\n",
                result.asdb_category_asns, result.he_added_asns,
                result.curated_operators, result.identified_operators,
                result.fallback_threshold_ms);
  out += line;
  for (const auto& op : result.operators) {
    std::snprintf(line, sizeof(line),
                  "  %-12s %-4s retained=%-7zu strict=%s thr=%-7.1f "
                  "precision=%.3f recall=%.3f\n",
                  op.name.c_str(), orbit::to_string(op.declared_orbit).c_str(),
                  op.retained.size(), op.covered_by_strict ? "yes" : "no ",
                  op.relax_threshold_ms, op.precision(), op.recall());
    out += line;
  }
  return out;
}

}  // namespace satnet::snoid
