// satnetctl: command-line driver for the library — run campaigns, the
// identification pipeline, the RIPE campaign, or the census, export
// datasets as CSV for external plotting, or print the paper's tables
// and figures. Run it without arguments for the usage text, which is
// printed from the flag tables below; README ("Command line") describes
// the shared flags and the exit codes.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/paper.hpp"
#include "io/report.hpp"
#include "io/session.hpp"
#include "matrix/invariants.hpp"
#include "mlab/campaign.hpp"
#include "orbit/constellation.hpp"
#include "orbit/propagator.hpp"
#include "orbit/sgp4.hpp"
#include "prolific/census.hpp"
#include "ripe/atlas.hpp"
#include "runtime/sharded.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "synth/worldgen.hpp"

namespace {

using namespace satnet;

void print_campaign_report(const runtime::CampaignReport& report) {
  if (report.clean()) return;
  std::printf("campaign '%s': %zu shards, %zu retries, %zu degraded\n",
              report.phase.c_str(), report.shards, report.retries, report.degraded);
  for (std::size_t i = 0; i < report.degraded_shards.size(); ++i) {
    std::printf("  degraded shard %zu: %s\n", report.degraded_shards[i],
                report.degraded_errors[i].c_str());
  }
}

/// Closes an export file and reports a write that failed (a full disk,
/// /dev/full) as one diagnostic instead of a success line.
bool close_export(std::ofstream& out, const std::string& path) {
  out.close();
  if (out) return true;
  std::fprintf(stderr, "error writing %s\n", path.c_str());
  return false;
}

runtime::RetryPolicy retry_policy(const io::Args& args) {
  runtime::RetryPolicy policy;
  policy.max_attempts = static_cast<std::size_t>(args.integer("--retries"));
  policy.degrade = args.has("--degrade");
  return policy;
}

int cmd_campaign(const io::RunSession& session) {
  const io::Args& args = session.args();
  const std::string& out_path = args.str("--out");
  synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = args.real("--scale");
  cfg.threads = session.threads();
  cfg.retry = retry_policy(args);
  runtime::CampaignReport report;
  const auto dataset = mlab::run_campaign(world, cfg, &report);
  print_campaign_report(report);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::size_t rows = io::export_ndt(dataset, out);
  if (!close_export(out, out_path)) return 1;
  std::printf("wrote %zu NDT records to %s\n", rows, out_path.c_str());
  return 0;
}

int cmd_pipeline(const io::RunSession& session) {
  const io::Args& args = session.args();
  const std::string& out_path = args.str("--out");
  synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = args.real("--scale");
  cfg.threads = session.threads();
  cfg.retry = retry_policy(args);
  runtime::CampaignReport report;
  const auto dataset = mlab::run_campaign(world, cfg, &report);
  print_campaign_report(report);
  snoid::PipelineConfig pcfg;
  pcfg.threads = cfg.threads;
  pcfg.retry = cfg.retry;
  const auto result = snoid::run_pipeline(dataset, pcfg);
  std::printf("%s", snoid::describe(result).c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    io::export_pipeline(result, out);
    if (!close_export(out, out_path)) return 1;
    std::printf("wrote per-operator results to %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_atlas(const io::RunSession& session) {
  const io::Args& args = session.args();
  const std::string& out_path = args.str("--out");
  ripe::AtlasConfig cfg;
  cfg.duration_days = args.real("--days");
  cfg.round_interval_hours = 24.0;
  cfg.threads = session.threads();
  cfg.retry = retry_policy(args);
  const auto dataset = ripe::run_atlas_campaign(cfg);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::size_t rows = io::export_traceroutes(dataset, out);
  if (!close_export(out, out_path)) return 1;
  std::printf("validated probes: %zu; wrote %zu traceroutes to %s\n",
              ripe::validated_probe_ids(dataset).size(), rows, out_path.c_str());
  return 0;
}

int cmd_report(const io::RunSession& session) {
  const io::Args& args = session.args();
  const std::string& out_path = args.str("--out");
  synth::World world;
  mlab::CampaignConfig mc;
  mc.volume_scale = args.real("--scale");
  mc.threads = session.threads();
  mc.retry = retry_policy(args);
  runtime::CampaignReport report;
  const auto dataset = mlab::run_campaign(world, mc, &report);
  print_campaign_report(report);
  snoid::PipelineConfig pcfg;
  pcfg.threads = mc.threads;
  pcfg.retry = mc.retry;
  const auto result = snoid::run_pipeline(dataset, pcfg);
  ripe::AtlasConfig ac;
  ac.duration_days = 366.0;
  ac.round_interval_hours = 24.0;
  ac.threads = mc.threads;
  ac.retry = mc.retry;
  const auto atlas = ripe::run_atlas_campaign(ac);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << io::study_report(dataset, result, atlas);
  if (!close_export(out, out_path)) return 1;
  std::printf("wrote study report to %s\n", out_path.c_str());
  return 0;
}

int cmd_world(const io::RunSession& session) {
  const io::Args& args = session.args();
  if (!args.has("--seed")) {
    std::fprintf(stderr, "satnetctl world: --seed N is required\n");
    return 2;
  }
  synth::ScenarioSpec spec = synth::generate_scenario(args.integer("--seed"));
  if (args.has("--orbit-model")) {
    const orbit::OrbitModel model = *orbit::parse_orbit_model(args.str("--orbit-model"));
    for (auto& net : spec.networks) {
      if (net.orbit != orbit::OrbitClass::geo) net.model = model;
    }
  }
  std::printf("%s", spec.to_text().c_str());
  std::printf("# %s\n", spec.summary().c_str());
  if (args.has("--check")) {
    const auto violation = matrix::check_spec(spec);
    if (violation.has_value()) {
      std::fprintf(stderr, "invariant violation: %s: %s\n",
                   violation->invariant.c_str(), violation->detail.c_str());
      return 1;
    }
    std::printf("# invariants: thread-identity ablation-identity flow-conservation "
                "monotone-degradation finite-metrics all ok\n");
  }
  return 0;
}

int cmd_tle(const io::RunSession& session) {
  const std::string& path = session.args().positionals()[0];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "satnetctl tle: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string err;
  auto catalog = orbit::parse_tle_catalog(text, &err);
  if (!catalog) {
    std::fprintf(stderr, "satnetctl tle: %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  const double t = session.args().real("--t");
  const orbit::Constellation c = orbit::Constellation::from_tles(std::move(*catalog));
  const auto& prop = static_cast<const orbit::Sgp4Propagator&>(c.propagator());
  std::printf("catalog %s: %zu satellites, epoch jd %.8f, t=%gs\n", path.c_str(),
              c.total_sats(), prop.epoch_jd(), t);
  for (std::size_t i = 0; i < c.total_sats(); ++i) {
    const orbit::Tle& tle = prop.tles()[i];
    const geo::GeoPoint pos = c.position(orbit::SatId{0, 0, i}, t);
    if (pos.alt_km < 0.0) {
      std::printf("%5u %-14s decayed\n", tle.satnum,
                  tle.name.empty() ? "-" : tle.name.c_str());
    } else {
      std::printf("%5u %-14s lat=%9.4f lon=%9.4f alt=%9.2f km\n", tle.satnum,
                  tle.name.empty() ? "-" : tle.name.c_str(), pos.lat_deg, pos.lon_deg,
                  pos.alt_km);
    }
  }
  return 0;
}

int cmd_census(const io::RunSession&) {
  prolific::TesterPool pool;
  stats::Rng rng(1);
  const auto out = pool.run_census(rng);
  std::printf("prescreened %zu -> responded %zu -> verified %zu\n",
              out.prescreen_claimed, out.prescreen_responded, out.prescreen_verified);
  std::printf("open census %zu participants -> %zu on SNOs\n", out.open_participants,
              out.open_verified);
  for (const auto& [sno, n] : out.verified_by_sno) {
    std::printf("  %-10s %zu\n", sno.c_str(), n);
  }
  return 0;
}

int cmd_paper(const io::RunSession& session) {
  io::paper::Inputs inputs(session.threads());
  const std::string& only = session.args().str("--figure");
  for (const io::paper::Section& section : io::paper::sections()) {
    if (only.empty() || section.id == only) {
      std::fputs(section.render(inputs).c_str(), stdout);
    }
  }
  return 0;
}

/// One subcommand: its own flags (the session adds the shared ones),
/// its positional arguments, and a one-line summary for the usage text.
struct Command {
  std::string name;
  std::vector<std::string> positionals;
  std::vector<io::Flag> flags;
  std::string summary;
  int (*run)(const io::RunSession&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const io::Flag scale{"--scale", "S", io::real_in(0, 1, /*lo_open=*/true), "0.0005",
                         "campaign volume as a share of the paper's (1 = the paper's)"};
    const io::Flag retries{"--retries", "N", io::integer_in(1, 1000), "1",
                           "attempts per shard before quarantine"};
    const io::Flag degrade{
        "--degrade", "", {}, "",
        "finish with degraded accounting instead of aborting on shard failure"};
    const auto out = [](const char* fallback) {
      return io::Flag{"--out", "FILE", io::path(), fallback, "output file"};
    };
    return std::vector<Command>{
        {"campaign", {}, {scale, out("ndt.csv"), retries, degrade},
         "M-Lab NDT campaign -> CSV", cmd_campaign},
        {"pipeline", {}, {scale, out(""), retries, degrade},
         "NDT campaign -> SNO identification summary (per-operator CSV with --out)",
         cmd_pipeline},
        {"atlas", {},
         {{"--days", "D", io::real_in(0, 3660, /*lo_open=*/true), "90",
           "campaign length in days"},
          out("traceroutes.csv"), retries, degrade},
         "RIPE Atlas campaign -> CSV", cmd_atlas},
        {"census", {}, {}, "Prolific census funnel", cmd_census},
        {"paper", {},
         {{"--figure", "ID", io::one_of(io::paper::section_ids()), "",
           "print this section only"}},
         "every table, figure, ablation and extension of the paper report",
         cmd_paper},
        {"report", {}, {scale, out("report.md"), retries, degrade},
         "NDT + pipeline + one-year Atlas -> Markdown study report", cmd_report},
        {"world", {},
         {{"--seed", "N", io::integer_in(0, UINT64_MAX), "",
           "scenario-matrix seed (required)"},
          {"--check", "", {}, "",
           "run the invariant catalog on the spec (exit 1 on violation)"},
          {"--orbit-model", "M", io::one_of({"walker", "sgp4"}), "",
           "force the LEO ephemeris backend instead of the seeded draw"}},
         "print the generated scenario spec for a matrix seed", cmd_world},
        {"tle", {"FILE"},
         {{"--t", "SEC", io::finite_real(), "0", "simulation time in seconds"}},
         "load a TLE catalog and print SGP4 positions at sim time t", cmd_tle},
    };
  }();
  return table;
}

std::string usage() {
  std::string text = "usage: satnetctl <command> [flags]\n";
  // Built with += only: GCC 12 at -O3 raises a false -Wrestrict on
  // "literal" + std::string chains.
  for (const Command& cmd : commands()) {
    (text += '\n') += cmd.name;
    for (const std::string& p : cmd.positionals) (text += ' ') += p;
    if (!cmd.flags.empty()) (text += ' ') += io::flag_synopsis(cmd.flags);
    ((text += "\n    ") += cmd.summary) += '\n';
    text += io::flag_help(cmd.flags);
  }
  text += "\nevery command also accepts:\n";
  text += io::flag_help(io::RunSession::shared_flags());
  text += "\nexit codes: 2 for a bad flag, 1 for a failed run or write\n";
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  const std::string name = argv[1];
  const Command* cmd = nullptr;
  std::string names;
  for (const Command& c : commands()) {
    if (c.name == name) cmd = &c;
    names += names.empty() ? c.name : " " + c.name;
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "satnetctl: unknown command '%s' (commands: %s)\n", name.c_str(),
                 names.c_str());
    return 2;
  }
  io::RunSession session(argc, argv, "satnetctl " + name);
  session.start(argc, argv, 2, cmd->flags, cmd->positionals);
  const int rc = cmd->run(session);
  return session.finish(rc);
}
