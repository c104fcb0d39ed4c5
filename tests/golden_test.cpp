// Golden-run regression suite: pins the identify_snos walkthrough, the
// whole paper report (`satnetctl paper`), the CSV exports and the TCP
// and QUIC flow models byte-for-byte against snapshots in tests/golden/. Any change to
// simulation behaviour — intended or not — shows up here as a readable
// diff.
//
// Regenerating snapshots after an intended behaviour change (never in CI):
//
//   ./build/tests/golden_test --update-golden
//
// then review the diff of tests/golden/ like any other code change.
// SATNET_UPDATE_GOLDEN=1 in the environment does the same.
//
// The shared run flags (io/session.hpp) apply to the whole suite, and
// every snapshot must still match byte-for-byte under them, so
// scripts/verify.sh --golden uses each round as an equivalence oracle:
// --no-timeline (no replay, every sample takes the window sweep) and
// --recorder-out FILE (flight recorder on, drained to FILE at exit).
// --threads N asserts one more thread count on top of the fixed 1/2/8.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "io/csv.hpp"
#include "io/golden.hpp"
#include "io/paper.hpp"
#include "io/session.hpp"
#include "mlab/campaign.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"
#include "transport/quic.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace satnet;

bool& update_mode() {
  static bool update = false;
  return update;
}

/// Extra thread count to assert (--threads N); 0 = none. The suite
/// always checks 1/2/8 — this lets the repeat gate sweep further counts
/// (e.g. scripts/verify.sh --golden) without recompiling.
unsigned& extra_threads() {
  static unsigned t = 0;
  return t;
}

std::string golden_path(const char* name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open snapshot " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write snapshot " << path;
  out << text;
}

/// Byte-compare `actual` against the named snapshot; in update mode,
/// rewrite the snapshot instead. On mismatch, report the first
/// differing line so the failure reads like a diff hunk.
void expect_golden(const char* name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_file(path, actual);
    std::printf("  updated %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  const std::string expected = read_file(path);
  if (actual == expected) return;
  std::istringstream got(actual), want(expected);
  std::string got_line, want_line;
  std::size_t lineno = 0;
  while (true) {
    ++lineno;
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (!g || !w || got_line != want_line) {
      FAIL() << name << " diverges from " << path << " at line " << lineno
             << "\n  expected: " << (w ? want_line : "<end of file>")
             << "\n  actual:   " << (g ? got_line : "<end of file>")
             << "\nIf the change is intended, regenerate with "
                "./build/tests/golden_test --update-golden and review the diff.";
    }
  }
  FAIL() << name << ": byte difference not visible line-by-line (trailing "
            "whitespace or newline?) — expected "
         << expected.size() << " bytes, got " << actual.size();
}

TEST(Golden, IdentifySnosThreadInvariant) {
  const std::string t1 = io::identify_snos_report(1);
  const std::string t2 = io::identify_snos_report(2);
  const std::string t8 = io::identify_snos_report(8);
  EXPECT_EQ(t1, t2) << "identify_snos narration differs between 1 and 2 threads";
  EXPECT_EQ(t1, t8) << "identify_snos narration differs between 1 and 8 threads";
  if (extra_threads() != 0) {
    EXPECT_EQ(t1, io::identify_snos_report(extra_threads()))
        << "identify_snos narration differs at --threads " << extra_threads();
  }
  expect_golden("identify_snos.txt", t1);
}

// The whole paper report (every table, figure, ablation and extension
// of `satnetctl paper`), each thread count over its own freshly built
// datasets.
TEST(Golden, PaperReport) {
  const auto render = [](unsigned threads) {
    io::paper::Inputs inputs(threads);
    return io::paper::render_all(inputs);
  };
  const std::string t1 = render(1);
  std::vector<unsigned> counts = {2, 8};
  if (extra_threads() != 0) counts.push_back(extra_threads());
  for (const unsigned threads : counts) {
    EXPECT_EQ(t1, render(threads)) << "paper report differs at " << threads << " threads";
  }
  expect_golden("paper.txt", t1);
}

// The CSV exports, byte for byte, on io_test's small datasets: an NDT
// campaign at volume 0.00005 (with its pipeline outcome) and three days
// of Atlas traceroutes at a 24 h cadence. Every dataset is built and
// exported at each snapshot thread count; the CSV text must not change.
struct ExportCsv {
  std::string ndt, pipeline, traceroutes;
};

ExportCsv export_csv(unsigned threads) {
  static const synth::World world;
  mlab::CampaignConfig mc;
  mc.volume_scale = 0.00005;
  mc.min_tests_per_sno = 5;
  mc.threads = threads;
  const auto dataset = mlab::run_campaign(world, mc);
  snoid::PipelineConfig pc;
  pc.threads = threads;
  const auto result = snoid::run_pipeline(dataset, pc);
  ripe::AtlasConfig ac;
  ac.duration_days = 3.0;
  ac.round_interval_hours = 24.0;
  ac.threads = threads;
  const auto atlas = ripe::run_atlas_campaign(ac);
  std::ostringstream ndt, pipeline, traceroutes;
  io::export_ndt(dataset, ndt);
  io::export_pipeline(result, pipeline);
  io::export_traceroutes(atlas, traceroutes);
  return {ndt.str(), pipeline.str(), traceroutes.str()};
}

TEST(Golden, CsvExportsThreadInvariant) {
  const ExportCsv t1 = export_csv(1);
  std::vector<unsigned> counts = {2, 8};
  if (extra_threads() != 0) counts.push_back(extra_threads());
  for (const unsigned threads : counts) {
    const ExportCsv tn = export_csv(threads);
    EXPECT_EQ(t1.ndt, tn.ndt) << "export_ndt differs at " << threads << " threads";
    EXPECT_EQ(t1.pipeline, tn.pipeline)
        << "export_pipeline differs at " << threads << " threads";
    EXPECT_EQ(t1.traceroutes, tn.traceroutes)
        << "export_traceroutes differs at " << threads << " threads";
  }
  expect_golden("export_ndt.csv", t1.ndt);
  expect_golden("export_pipeline.csv", t1.pipeline);
  expect_golden("export_traceroutes.csv", t1.traceroutes);
}

// The flow models themselves, on a grid of paths × models × run modes:
// every FlowResult scalar at full precision, the snapshot count and an
// FNV-1a hash over every snapshot field. Covers what the campaign
// goldens never reach: Reno, QUIC run_bytes, non-default TcpOptions and
// an empty transfer (NaN percentiles).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}

std::uint64_t snapshot_hash(const std::vector<transport::TcpInfoSnapshot>& snapshots) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& s : snapshots) {
    for (const double d : {s.t_ms, s.rtt_ms, s.last_rtt_ms, s.delivery_rate_mbps,
                           s.cwnd_packets}) {
      h = fnv1a(h, &d, sizeof d);
    }
    for (const std::uint64_t u : {s.bytes_sent, s.bytes_retrans, s.bytes_acked}) {
      h = fnv1a(h, &u, sizeof u);
    }
  }
  return h;
}

std::string flow_row(const std::string& label, const transport::FlowResult& r) {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "%s duration=%.17g sent=%llu retrans=%llu acked=%llu goodput=%.17g "
                "rtt_p5=%.17g rtt_median=%.17g jitter_p95=%.17g retrans_frac=%.17g "
                "handoffs=%zu rtos=%zu snapshots=%zu snapshot_hash=%016llx\n",
                label.c_str(), r.duration_ms, static_cast<unsigned long long>(r.bytes_sent),
                static_cast<unsigned long long>(r.bytes_retrans),
                static_cast<unsigned long long>(r.bytes_acked), r.goodput_mbps, r.rtt_p5_ms,
                r.rtt_median_ms, r.jitter_p95_ms, r.retrans_fraction, r.n_handoffs, r.n_rtos,
                r.snapshots.size(),
                static_cast<unsigned long long>(snapshot_hash(r.snapshots)));
  return buf;
}

std::string flow_models_report() {
  using transport::PathProfile;
  std::vector<std::pair<std::string, PathProfile>> paths;
  PathProfile leo;  // handoffs with spike and loss, both random-loss segments
  leo.base_rtt_ms = 50;
  leo.jitter_ms = 4;
  leo.bottleneck_mbps = 100;
  leo.buffer_bdp = 1.5;
  leo.sat_loss = 0.004;
  leo.ground_loss = 0.0005;
  leo.spurious_rto_prob = 0.0008;
  leo.handoff_rate_hz = 0.25;
  leo.handoff_loss_frac = 0.12;
  leo.handoff_spike_ms = 30;
  paths.emplace_back("leo-handoff", leo);
  PathProfile geo_pep;
  geo_pep.base_rtt_ms = 620;
  geo_pep.jitter_ms = 40;
  geo_pep.bottleneck_mbps = 20;
  geo_pep.buffer_bdp = 0.8;
  geo_pep.sat_loss = 0.025;
  geo_pep.ground_loss = 0.0002;
  geo_pep.spurious_rto_prob = 0.03;
  geo_pep.pep = true;
  paths.emplace_back("geo-pep", geo_pep);
  PathProfile geo_raw = geo_pep;
  geo_raw.pep = false;
  geo_raw.spurious_rto_prob = 0.12;
  paths.emplace_back("geo-nopep-spurious", geo_raw);
  PathProfile bloat;  // loss-free but a deep buffer the window overruns
  bloat.base_rtt_ms = 40;
  bloat.jitter_ms = 2;
  bloat.bottleneck_mbps = 10;
  bloat.buffer_bdp = 4.0;
  paths.emplace_back("bufferbloat", bloat);
  PathProfile clean;  // no loss process and no queue below the window cap
  clean.base_rtt_ms = 30;
  clean.jitter_ms = 1;
  clean.bottleneck_mbps = 10000;
  paths.emplace_back("loss-free", clean);

  transport::TcpOptions cubic;
  transport::TcpOptions reno;
  reno.cc = transport::CongestionControl::reno;
  const transport::QuicOptions quic;
  std::string out;
  std::uint64_t seed = 1;
  for (const auto& [name, path] : paths) {
    const auto tcp = [&](const transport::TcpOptions& opt) {
      return transport::TcpFlow(path, opt, stats::Rng(seed++));
    };
    const auto qf = [&] { return transport::QuicFlow(path, quic, stats::Rng(seed++)); };
    out += flow_row(name + " tcp-cubic run_for(10000)", tcp(cubic).run_for(10000));
    out += flow_row(name + " tcp-reno run_for(10000)", tcp(reno).run_for(10000));
    out += flow_row(name + " tcp-cubic run_bytes(65536)", tcp(cubic).run_bytes(65536));
    out += flow_row(name + " tcp-cubic run_bytes(5000000)", tcp(cubic).run_bytes(5000000));
    out += flow_row(name + " quic run_for(10000)", qf().run_for(10000));
    out += flow_row(name + " quic run_bytes(65536)", qf().run_bytes(65536));
    out += flow_row(name + " quic run_bytes(5000000)", qf().run_bytes(5000000));
    // Fetches also pin how many draws the handshake takes from the
    // caller's stream: the next uniform after the fetch.
    const auto fetch_row = [&](const char* what, auto&& fetch) {
      stats::Rng rng(seed++);
      const double ms = fetch(rng);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s %s ms=%.17g next_draw=%.17g\n", name.c_str(), what,
                    ms, rng.uniform());
      out += buf;
    };
    fetch_row("fetch_time_ms(200000, 0 rtts)", [&](stats::Rng& rng) {
      return transport::fetch_time_ms(path, 200000, 0.0, rng);
    });
    fetch_row("fetch_time_ms(200000, 2 rtts)", [&](stats::Rng& rng) {
      return transport::fetch_time_ms(path, 200000, 2.0, rng);
    });
    fetch_row("quic_fetch_time_ms(200000)", [&](stats::Rng& rng) {
      return transport::quic_fetch_time_ms(path, 200000, rng);
    });
  }

  transport::TcpOptions slow_rto;
  slow_rto.min_rto_ms = 3000;
  out += flow_row("geo-nopep-spurious tcp-cubic min_rto_ms=3000 run_for(10000)",
                  transport::TcpFlow(geo_raw, slow_rto, stats::Rng(seed++)).run_for(10000));
  transport::TcpOptions fast_poll;
  fast_poll.snapshot_interval_ms = 50;
  out += flow_row("leo-handoff tcp-cubic snapshot_interval_ms=50 run_for(10000)",
                  transport::TcpFlow(leo, fast_poll, stats::Rng(seed++)).run_for(10000));
  // Timer floors low enough that the RTO and PTO read the srtt (and
  // TCP's rttvar) instead of the floor, with timeouts in most rounds.
  PathProfile flaky = geo_raw;
  flaky.spurious_rto_prob = 0.6;
  transport::TcpOptions fast_rto;
  fast_rto.min_rto_ms = 200;
  out += flow_row("geo-flaky tcp-cubic min_rto_ms=200 run_for(10000)",
                  transport::TcpFlow(flaky, fast_rto, stats::Rng(seed++)).run_for(10000));
  transport::QuicOptions fast_pto;
  fast_pto.min_pto_ms = 200;
  out += flow_row("geo-flaky quic min_pto_ms=200 run_for(10000)",
                  transport::QuicFlow(flaky, fast_pto, stats::Rng(seed++)).run_for(10000));
  out += flow_row("leo-handoff tcp-cubic run_bytes(0)",
                  transport::TcpFlow(leo, cubic, stats::Rng(seed++)).run_bytes(0));
  out += flow_row("leo-handoff quic run_bytes(0)",
                  transport::QuicFlow(leo, quic, stats::Rng(seed++)).run_bytes(0));
  return out;
}

TEST(Golden, FlowModels) { expect_golden("flows.txt", flow_models_report()); }

// Same contract for the epoch timeline: snapshots built without a plan
// must never leak stale samples into a fault-plan run — the era keys
// travel with the snapshot, so affected lookups fall back per era while
// everything else keeps replaying. Compares the identify_snos
// walkthrough timeline-on vs timeline-off under the shipped example
// plan at every snapshot thread count.
TEST(Golden, TimelineAblationUnderFaultPlan) {
  const bool timeline_was_enabled = orbit::timeline_enabled();
  fault::ScopedHook scoped(fault::FaultPlan::load_file(FAULTPLAN_PATH));
  for (const unsigned threads : {1u, 2u, 8u}) {
    orbit::set_timeline_enabled(true);
    const std::string replayed = io::identify_snos_report(threads);
    orbit::set_timeline_enabled(false);
    const std::string on_demand = io::identify_snos_report(threads);
    EXPECT_EQ(replayed, on_demand)
        << "identify_snos diverges timeline-on vs timeline-off at " << threads
        << " threads under " << FAULTPLAN_PATH;
  }
  orbit::set_timeline_enabled(timeline_was_enabled);
}

}  // namespace

int main(int argc, char** argv) {
  satnet::io::RunSession session(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  session.start(
      argc, argv, 1,
      {{"--update-golden", "", {}, "", "rewrite the snapshots instead of comparing"}});
  update_mode() = session.args().has("--update-golden");
  extra_threads() = session.threads();
  if (const char* env = std::getenv("SATNET_UPDATE_GOLDEN")) {
    if (env[0] != '\0' && env[0] != '0') update_mode() = true;
  }
  return session.finish(RUN_ALL_TESTS());
}
