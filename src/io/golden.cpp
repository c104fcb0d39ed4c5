#include "io/golden.hpp"

#include <set>

#include "io/text.hpp"
#include "mlab/campaign.hpp"
#include "snoid/pipeline.hpp"
#include "stats/kde.hpp"
#include "synth/asdb.hpp"
#include "synth/world.hpp"

namespace satnet::io {

std::string identify_snos_report(unsigned threads) {
  std::string out;
  out += "== SNO identification, stage by stage ==\n\n";

  // Stage 0: the dataset.
  const synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = 0.001;
  cfg.min_tests_per_sno = 30;
  cfg.threads = threads;
  cfg.retry = runtime::degrade_under_faults();
  const auto dataset = mlab::run_campaign(world, cfg);
  appendf(out, "[0] M-Lab campaign: %zu NDT speed tests\n\n", dataset.size());

  // Stage 1: ASdb's satellite category.
  const auto asdb = synth::asdb_satellite_category();
  appendf(out, "[1] ASdb 'Satellite Communication' category: %zu ASNs\n", asdb.size());
  out += "    (note: Starlink and Viasat are missing — ASdb's gap)\n";

  // Stage 1b: HE BGP search for well-known operators.
  std::set<bgp::Asn> candidates;
  for (const auto& row : asdb) candidates.insert(row.asn);
  std::size_t added = 0;
  for (const char* name : {"starlink", "viasat", "oneweb", "ses", "hughes"}) {
    for (const auto asn : synth::he_bgp_search(name)) {
      if (candidates.insert(asn).second) ++added;
    }
  }
  appendf(out, "[1b] HE BGP name search adds %zu ASNs (total %zu)\n\n", added,
          candidates.size());

  // Stage 2: manual curation via websites.
  std::size_t kept = 0, dropped = 0;
  for (const auto asn : candidates) {
    const auto info = synth::ipinfo_lookup(asn);
    if (info && info->kind == synth::EntityKind::sno) {
      ++kept;
    } else {
      ++dropped;
    }
  }
  appendf(out, "[2] website curation: %zu SNO ASNs kept, %zu look-alikes dropped\n\n",
          kept, dropped);

  // Stage 3: KDE validation — show the famous outlier.
  const auto by_asn = dataset.by_asn();
  for (const bgp::Asn asn : {bgp::Asn{14593}, bgp::Asn{27277}}) {
    const auto it = by_asn.find(asn);
    if (it == by_asn.end()) continue;
    const auto lat = dataset.field(it->second, &mlab::NdtRecord::latency_p5_ms);
    const auto peaks = stats::Kde(lat).peaks();
    appendf(out, "[3] AS%u latency KDE: main peak %.0f ms over %zu tests -> %s\n", asn,
            peaks.empty() ? 0.0 : peaks.front().location, lat.size(),
            asn == 14593 ? "compatible with LEO service"
                         : "terrestrial: this is SpaceX's corporate network");
  }

  // Stages 3b-4: the full pipeline.
  snoid::PipelineConfig pcfg;
  pcfg.threads = threads;
  pcfg.retry = runtime::degrade_under_faults();
  const auto result = snoid::run_pipeline(dataset, pcfg);
  appendf(out, "\n[3b-4] strict prefix filter + relaxation:\n%s",
          snoid::describe(result).c_str());
  return out;
}

}  // namespace satnet::io
