// satnetctl: command-line driver for the library — run campaigns, the
// identification pipeline, the RIPE campaign, or the census, and export
// datasets as CSV for external plotting.
//
// Usage:
//   satnetctl campaign [--scale S] [--out FILE]   M-Lab NDT campaign -> CSV
//   satnetctl pipeline [--scale S]                identification summary
//   satnetctl atlas [--days D] [--out FILE]       RIPE campaign -> CSV
//   satnetctl census                              Prolific census funnel
//   satnetctl world --seed N [--check]            print a generated scenario
//                                                 spec; --check runs the
//                                                 invariant catalog on it
//   satnetctl tle FILE [--t SEC]                  load a TLE catalog and print
//                                                 SGP4 positions at sim time t
//
// An export that cannot be written (a full disk, /dev/full) prints one
// "error writing FILE" diagnostic and exits 1.
//
// `world` accepts --orbit-model walker|sgp4 (also --orbit-model=...) to
// force the LEO network's ephemeris backend instead of the seeded draw.
//
// Every campaign-running command accepts --threads N (0 = one worker per
// hardware thread, the default). Output is identical for every value —
// the sharded runtime is deterministic in (seed, config) only.
//
// Observability: every command additionally accepts
//   --metrics-out PATH   Prometheus text export ("-" = stdout)
//   --trace-out PATH     JSON-lines manifest + metrics + spans
// When either is given a human-readable metrics summary is printed at
// the end of the run. Exports are wall-clock telemetry only; simulation
// output stays byte-identical with or without them.
//
// Flight recorder: every command accepts
//   --recorder-out PATH        drain the flight recorder to JSONL
//                              ("-" = stdout); postmortems on abort-mode
//                              failure land at PATH.postmortem
//   --recorder-ring N          per-shard ring capacity (default 512)
//   --watchdog-ms N            ThreadPool watchdog poll interval
//                              (default 0 = off)
//   --watchdog-threshold-ms X  stall threshold for the pool watchdog
// Recorder and watchdog are observation-only: output stays
// byte-identical with or without them.
//
// Fault injection: every campaign-running command accepts
//   --fault-plan PATH    install a fault plan (see src/fault) for the run
//   --retries N          attempts per shard before quarantine (default 1)
//   --degrade            complete the campaign with degraded accounting
//                        instead of aborting on shard failure
// The active plan and its event summary land in the run manifest.
//
// Ablation: --no-access-cache disables the access-interval visibility
// index (src/orbit/access_index.*) so every sample re-runs the full
// cone-prefilter sweep. Only SGP4 networks have an index, so the flag
// affects SGP4 networks only. Output is byte-identical either way.
//
// Timeline: campaign-running commands precompute the epoch timeline
// before sharding (src/orbit/timeline.*) and replay it as pure lookups.
//   --no-timeline        ablate the precompute (on-demand oracle path)
//   --timeline-in PATH   warm-start from a saved timeline file
//   --timeline-out PATH  save the built timeline for later warm starts
// Output is byte-identical in every mode; a rejected --timeline-in file
// prints one diagnostic and the run falls back to an in-memory build.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "fault/hook.hpp"
#include "io/csv.hpp"
#include "io/report.hpp"
#include "io/timeline_io.hpp"
#include "matrix/invariants.hpp"
#include "mlab/campaign.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orbit/access_index.hpp"
#include "orbit/constellation.hpp"
#include "orbit/propagator.hpp"
#include "orbit/sgp4.hpp"
#include "orbit/timeline.hpp"
#include "prolific/census.hpp"
#include "ripe/atlas.hpp"
#include "runtime/thread_pool.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "synth/worldgen.hpp"

namespace {

using namespace satnet;

const char* flag_value(int argc, char** argv, const char* name, const char* fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 2; i < argc; ++i) {
    // Both "--flag value" and "--flag=value" spellings.
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

unsigned threads_flag(int argc, char** argv) {
  const char* raw = flag_value(argc, argv, "--threads", "0");
  char* end = nullptr;
  const unsigned long n = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') {
    std::fprintf(stderr, "satnetctl: --threads expects a number, got '%s'\n", raw);
    std::exit(2);
  }
  return static_cast<unsigned>(n);
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

runtime::RetryPolicy retry_flags(int argc, char** argv) {
  runtime::RetryPolicy policy;
  const char* raw = flag_value(argc, argv, "--retries", "1");
  char* end = nullptr;
  const unsigned long n = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || n == 0) {
    std::fprintf(stderr, "satnetctl: --retries expects a number >= 1, got '%s'\n", raw);
    std::exit(2);
  }
  policy.max_attempts = static_cast<std::size_t>(n);
  policy.degrade = has_flag(argc, argv, "--degrade");
  return policy;
}

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

int cmd_campaign(int argc, char** argv) {
  const double scale = std::stod(flag_value(argc, argv, "--scale", "0.0005"));
  const std::string out_path = flag_value(argc, argv, "--out", "ndt.csv");
  synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = scale;
  cfg.threads = threads_flag(argc, argv);
  cfg.retry = retry_flags(argc, argv);
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

int cmd_pipeline(int argc, char** argv) {
  const double scale = std::stod(flag_value(argc, argv, "--scale", "0.0005"));
  const std::string out_path = flag_value(argc, argv, "--out", "");
  synth::World world;
  mlab::CampaignConfig cfg;
  cfg.volume_scale = scale;
  cfg.threads = threads_flag(argc, argv);
  cfg.retry = retry_flags(argc, argv);
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

int cmd_atlas(int argc, char** argv) {
  const double days = std::stod(flag_value(argc, argv, "--days", "90"));
  const std::string out_path = flag_value(argc, argv, "--out", "traceroutes.csv");
  ripe::AtlasConfig cfg;
  cfg.duration_days = days;
  cfg.round_interval_hours = 24.0;
  cfg.threads = threads_flag(argc, argv);
  cfg.retry = retry_flags(argc, argv);
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

int cmd_report(int argc, char** argv) {
  const double scale = std::stod(flag_value(argc, argv, "--scale", "0.0005"));
  const std::string out_path = flag_value(argc, argv, "--out", "report.md");
  synth::World world;
  mlab::CampaignConfig mc;
  mc.volume_scale = scale;
  mc.threads = threads_flag(argc, argv);
  mc.retry = retry_flags(argc, argv);
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

int cmd_world(int argc, char** argv) {
  const char* raw = flag_value(argc, argv, "--seed", "");
  if (*raw == '\0') {
    std::fprintf(stderr, "satnetctl world: --seed N is required\n");
    return 2;
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') {
    std::fprintf(stderr, "satnetctl world: --seed expects a number, got '%s'\n", raw);
    return 2;
  }
  synth::ScenarioSpec spec = synth::generate_scenario(seed);
  const std::string model_raw = flag_value(argc, argv, "--orbit-model", "");
  if (!model_raw.empty()) {
    const auto model = orbit::parse_orbit_model(model_raw);
    if (!model) {
      std::fprintf(stderr, "satnetctl world: --orbit-model expects walker|sgp4, got '%s'\n",
                   model_raw.c_str());
      return 2;
    }
    for (auto& net : spec.networks) {
      if (net.orbit != orbit::OrbitClass::geo) net.model = *model;
    }
  }
  std::printf("%s", spec.to_text().c_str());
  std::printf("# %s\n", spec.summary().c_str());
  if (has_flag(argc, argv, "--check")) {
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

int cmd_tle(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "satnetctl tle: usage: satnetctl tle FILE [--t SEC]\n");
    return 2;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "satnetctl tle: cannot open %s\n", argv[2]);
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string err;
  auto catalog = orbit::parse_tle_catalog(text, &err);
  if (!catalog) {
    std::fprintf(stderr, "satnetctl tle: %s: %s\n", argv[2], err.c_str());
    return 2;
  }
  const double t = std::stod(flag_value(argc, argv, "--t", "0"));
  const orbit::Constellation c = orbit::Constellation::from_tles(std::move(*catalog));
  const auto& prop = static_cast<const orbit::Sgp4Propagator&>(c.propagator());
  std::printf("catalog %s: %zu satellites, epoch jd %.8f, t=%gs\n", argv[2],
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

int cmd_census(int, char**) {
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

int run_command(const std::string& cmd, int argc, char** argv) {
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "pipeline") return cmd_pipeline(argc, argv);
  if (cmd == "atlas") return cmd_atlas(argc, argv);
  if (cmd == "census") return cmd_census(argc, argv);
  if (cmd == "report") return cmd_report(argc, argv);
  if (cmd == "world") return cmd_world(argc, argv);
  if (cmd == "tle") return cmd_tle(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: satnetctl <campaign|pipeline|atlas|census|report|world|tle> [flags]\n"
                 "  campaign [--scale S] [--out FILE] [--threads N]\n"
                 "  pipeline [--scale S] [--out FILE] [--threads N]\n"
                 "  atlas    [--days D]  [--out FILE] [--threads N]\n"
                 "  census\n"
                 "  report   [--scale S] [--out FILE] [--threads N]\n"
                 "  world    --seed N [--check] [--orbit-model walker|sgp4]\n"
                 "           print the generated scenario spec for a matrix\n"
                 "           seed; --check runs the full invariant catalog on\n"
                 "           it (exit 1 on violation); --orbit-model forces\n"
                 "           the ephemeris backend instead of the seeded draw\n"
                 "  tle      FILE [--t SEC]       load a TLE catalog fleet and\n"
                 "           print SGP4-propagated positions at sim time t\n"
                 "every command also accepts --metrics-out PATH (Prometheus\n"
                 "text) and --trace-out PATH (JSON lines); '-' = stdout,\n"
                 "--recorder-out PATH [--recorder-ring N] to drain the\n"
                 "flight recorder to JSONL (postmortems at PATH.postmortem),\n"
                 "--watchdog-ms N [--watchdog-threshold-ms X] to poll for\n"
                 "stalled pool workers,\n"
                 "and --fault-plan PATH [--retries N] [--degrade] to inject\n"
                 "a deterministic fault schedule (see README, src/fault)\n"
                 "--no-access-cache ablates the access-interval index of\n"
                 "SGP4 networks (Walker networks have none; byte-identical\n"
                 "output, slower sampling)\n"
                 "--no-timeline ablates the epoch-timeline precompute;\n"
                 "--timeline-in PATH warm-starts from a saved timeline and\n"
                 "--timeline-out PATH saves the built one (byte-identical\n"
                 "output in every mode)\n"
                 "--threads 0 (default) uses one worker per hardware thread;\n"
                 "output is identical for every thread count\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (has_flag(argc, argv, "--no-access-cache")) {
    orbit::set_access_cache_enabled(false);
  }
  if (has_flag(argc, argv, "--no-timeline")) {
    orbit::set_timeline_enabled(false);
  }
  const std::string timeline_in = flag_value(argc, argv, "--timeline-in", "");
  const std::string timeline_out = flag_value(argc, argv, "--timeline-out", "");
  if (!timeline_in.empty()) {
    io::TimelineFileInfo tinfo;
    const std::string err = io::load_timelines(timeline_in, &tinfo);
    if (err.empty()) {
      std::printf("timeline %s: %zu networks, %zu bytes\n", timeline_in.c_str(),
                  tinfo.networks, tinfo.bytes);
    } else {
      // Deliberately not fatal: the run builds in memory and produces
      // the same bytes — the warm start is an optimisation only.
      std::fprintf(stderr, "satnetctl: %s\n", err.c_str());
    }
  }
  const std::string metrics_out = flag_value(argc, argv, "--metrics-out", "");
  const std::string trace_out = flag_value(argc, argv, "--trace-out", "");
  const std::string recorder_out = flag_value(argc, argv, "--recorder-out", "");
  if (!recorder_out.empty()) {
    obs::FlightRecorder& rec = obs::FlightRecorder::global();
    rec.set_enabled(true);
    const char* ring = flag_value(argc, argv, "--recorder-ring", "");
    if (*ring != '\0') {
      rec.set_ring_capacity(static_cast<std::size_t>(std::strtoul(ring, nullptr, 10)));
    }
    if (recorder_out != "-") rec.set_postmortem_path(recorder_out + ".postmortem");
  }
  {
    const char* poll = flag_value(argc, argv, "--watchdog-ms", "");
    const char* thresh = flag_value(argc, argv, "--watchdog-threshold-ms", "");
    if (*poll != '\0' || *thresh != '\0') {
      runtime::set_pool_watchdog(
          *poll != '\0' ? static_cast<unsigned>(std::strtoul(poll, nullptr, 10))
                        : runtime::pool_watchdog_poll_ms(),
          *thresh != '\0' ? std::strtod(thresh, nullptr)
                          : runtime::pool_watchdog_threshold_ms());
    }
  }
  const std::string fault_plan_path = flag_value(argc, argv, "--fault-plan", "");
  std::string fault_plan_summary;
  if (!fault_plan_path.empty()) {
    try {
      fault::FaultPlan plan = fault::FaultPlan::load_file(fault_plan_path);
      fault_plan_summary = plan.summary();
      fault::Hook::install(std::move(plan));
      std::printf("fault plan %s: %s\n", fault_plan_path.c_str(),
                  fault_plan_summary.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "satnetctl: %s\n", e.what());
      return 2;
    }
  }
  if (!trace_out.empty()) obs::Tracer::global().set_enabled(true);
  // satlint:allow(nondet-source): run-manifest wall-clock; results never read it
  const auto start = std::chrono::steady_clock::now();

  const int rc = run_command(cmd, argc, argv);

  if (rc == 0 && !timeline_out.empty()) {
    std::string stamp = "satnetctl";
    for (int i = 1; i < argc; ++i) {
      stamp += ' ';
      stamp += argv[i];
    }
    const std::string err = io::save_timelines(timeline_out, stamp);
    if (!err.empty()) {
      std::fprintf(stderr, "satnetctl: %s\n", err.c_str());
    } else {
      std::printf("saved timeline to %s\n", timeline_out.c_str());
    }
  }
  if (rc == 0) {
    const std::string tl = orbit::timeline_summary_line();
    if (!tl.empty()) std::printf("%s\n", tl.c_str());
  }

  if (rc == 0 && (!metrics_out.empty() || !trace_out.empty() ||
                  !recorder_out.empty())) {
    obs::RunManifest manifest;
    manifest.tool = "satnetctl " + cmd;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) manifest.command += ' ';
      manifest.command += argv[i];
    }
    manifest.threads = runtime::resolve_threads(threads_flag(argc, argv));
    if (!fault_plan_path.empty()) {
      manifest.notes.emplace_back("fault_plan", fault_plan_path);
      manifest.notes.emplace_back("fault_events", fault_plan_summary);
    }
    manifest.wall_ms = std::chrono::duration<double, std::milli>(
                           // satlint:allow(nondet-source): run-manifest wall-clock; results never read it
                           std::chrono::steady_clock::now() - start)
                           .count();
    const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
    // Drain the recorder once; events ride --trace-out and --recorder-out.
    std::vector<obs::ResolvedEvent> events;
    if (obs::FlightRecorder::global().enabled()) {
      events = obs::FlightRecorder::global().drain();
    }
    if (!metrics_out.empty()) obs::write_metrics_file(metrics_out, snap, manifest);
    if (!trace_out.empty()) {
      obs::write_trace_file(trace_out, snap, obs::Tracer::global().drain(),
                            events, manifest);
    }
    if (!recorder_out.empty()) {
      std::FILE* f = recorder_out == "-" ? stdout
                                         : std::fopen(recorder_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "satnetctl: cannot open %s\n", recorder_out.c_str());
      } else {
        std::fprintf(f, "%s\n", obs::manifest_json(manifest).c_str());
        std::fputs(obs::events_jsonl(events).c_str(), f);
        if (f != stdout) std::fclose(f);
      }
    }
    std::printf("%s", obs::summary_text(snap, manifest).c_str());
  }
  return rc;
}
