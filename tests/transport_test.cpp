#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "obs/metrics.hpp"
#include "transport/linkmodel.hpp"
#include "transport/path.hpp"
#include "transport/quic.hpp"
#include "transport/tcp.hpp"

namespace satnet::transport {
namespace {

PathProfile leo_path() {
  PathProfile p;
  p.base_rtt_ms = 50;
  p.jitter_ms = 4;
  p.bottleneck_mbps = 100;
  p.buffer_bdp = 1.5;
  p.sat_loss = 0.004;
  p.handoff_rate_hz = 0.05;
  p.handoff_loss_frac = 0.12;
  p.handoff_spike_ms = 30;
  return p;
}

PathProfile geo_path(bool pep) {
  PathProfile p;
  p.base_rtt_ms = 620;
  p.jitter_ms = 40;
  p.bottleneck_mbps = 20;
  p.buffer_bdp = 0.8;
  p.sat_loss = 0.025;
  p.pep = pep;
  return p;
}

FlowResult run(const PathProfile& p, double ms = 10000, std::uint64_t seed = 1) {
  TcpFlow flow(p, TcpOptions{}, stats::Rng(seed));
  return flow.run_for(ms);
}

// ------------------------------------------------------------ basic flow

TEST(TcpFlowTest, ByteConservation) {
  const FlowResult r = run(leo_path());
  EXPECT_EQ(r.bytes_sent, r.bytes_acked + r.bytes_retrans);
}

TEST(TcpFlowTest, DeterministicGivenSeed) {
  const FlowResult a = run(leo_path(), 5000, 42);
  const FlowResult b = run(leo_path(), 5000, 42);
  EXPECT_EQ(a.bytes_acked, b.bytes_acked);
  EXPECT_DOUBLE_EQ(a.rtt_p5_ms, b.rtt_p5_ms);
}

TEST(TcpFlowTest, RttP5NearBaseRtt) {
  const FlowResult r = run(leo_path());
  EXPECT_GE(r.rtt_p5_ms, 50.0);
  EXPECT_LT(r.rtt_p5_ms, 70.0);
}

TEST(TcpFlowTest, GoodputApproachesBottleneck) {
  PathProfile p = leo_path();
  p.sat_loss = 0;
  p.handoff_rate_hz = 0;
  const FlowResult r = run(p, 15000);
  EXPECT_GT(r.goodput_mbps, 0.5 * p.bottleneck_mbps);
  EXPECT_LE(r.goodput_mbps, 1.05 * p.bottleneck_mbps);
}

TEST(TcpFlowTest, GoodputNeverExceedsCapacityByMuch) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FlowResult r = run(leo_path(), 10000, seed);
    EXPECT_LE(r.goodput_mbps, leo_path().bottleneck_mbps * 1.1);
  }
}

TEST(TcpFlowTest, SlowCapacityMeansSlowGoodput) {
  PathProfile p = geo_path(true);
  p.bottleneck_mbps = 2.4;  // HughesNet-class plan
  const FlowResult r = run(p);
  EXPECT_LT(r.goodput_mbps, 3.0);
  EXPECT_GT(r.goodput_mbps, 0.3);
}

TEST(TcpFlowTest, DurationRunsToRequestedTime) {
  const FlowResult r = run(leo_path(), 10000);
  EXPECT_GE(r.duration_ms, 10000.0);
  EXPECT_LT(r.duration_ms, 13000.0);  // plus at most a few RTTs / RTO
}

// ---------------------------------------------------------- retransmits

TEST(TcpFlowTest, LossFreePathHasNoRetransmissions) {
  PathProfile p = leo_path();
  p.sat_loss = 0;
  p.ground_loss = 0;
  p.handoff_rate_hz = 0;
  p.buffer_bdp = 50;  // effectively no overflow
  const FlowResult r = run(p);
  EXPECT_EQ(r.bytes_retrans, 0u);
}

TEST(TcpFlowTest, NonPepGeoHasHighRetransmissions) {
  const FlowResult r = run(geo_path(false), 20000);
  EXPECT_GT(r.retrans_fraction, 0.02);
}

TEST(TcpFlowTest, PepSuppressesSatelliteLossRetransmissions) {
  double pep_total = 0, raw_total = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    pep_total += run(geo_path(true), 15000, seed).retrans_fraction;
    raw_total += run(geo_path(false), 15000, seed).retrans_fraction;
  }
  EXPECT_LT(pep_total, raw_total * 0.5);
}

TEST(TcpFlowTest, PepImprovesGeoGoodput) {
  double pep_total = 0, raw_total = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    pep_total += run(geo_path(true), 15000, seed).goodput_mbps;
    raw_total += run(geo_path(false), 15000, seed).goodput_mbps;
  }
  EXPECT_GT(pep_total, raw_total);
}

TEST(TcpFlowTest, HandoffsRecordedOnLeoPaths) {
  PathProfile p = leo_path();
  p.handoff_rate_hz = 0.2;  // exaggerate for a 10 s test
  const FlowResult r = run(p, 20000);
  EXPECT_GT(r.n_handoffs, 0u);
}

TEST(TcpFlowTest, RtoCollapsesWindow) {
  PathProfile p = geo_path(false);
  p.handoff_rate_hz = 0.0;
  p.sat_loss = 0.2;  // catastrophic loss: bursts trigger RTOs
  const FlowResult r = run(p, 20000);
  EXPECT_GT(r.n_rtos, 0u);
  EXPECT_LT(r.goodput_mbps, 2.0);
}

// -------------------------------------------------------------- jitter

TEST(TcpFlowTest, JitterScalesWithPathJitter) {
  PathProfile calm = leo_path();
  calm.jitter_ms = 1.0;
  calm.handoff_rate_hz = 0;
  PathProfile noisy = leo_path();
  noisy.jitter_ms = 30.0;
  noisy.handoff_rate_hz = 0;
  EXPECT_LT(run(calm, 15000).jitter_p95_ms, run(noisy, 15000).jitter_p95_ms);
}

TEST(TcpFlowTest, HandoffSpikesRaiseJitter) {
  // Use an un-congested, loss-free path so the only jitter sources are
  // the base noise and the handoff spikes under test.
  PathProfile calm = leo_path();
  calm.handoff_rate_hz = 0;
  calm.sat_loss = 0;
  calm.bottleneck_mbps = 5000;  // BDP above the max window: no queueing
  PathProfile choppy = calm;
  choppy.handoff_rate_hz = 0.3;
  choppy.handoff_loss_frac = 0;  // isolate the latency spike
  choppy.handoff_spike_ms = 60;
  double calm_j = 0, choppy_j = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    calm_j += run(calm, 15000, s).jitter_p95_ms;
    choppy_j += run(choppy, 15000, s).jitter_p95_ms;
  }
  EXPECT_GT(choppy_j, calm_j * 1.5);
}

// ------------------------------------------------------------ snapshots

TEST(TcpFlowTest, SnapshotsMonotone) {
  const FlowResult r = run(leo_path(), 10000);
  ASSERT_GT(r.snapshots.size(), 10u);
  for (std::size_t i = 1; i < r.snapshots.size(); ++i) {
    EXPECT_GE(r.snapshots[i].t_ms, r.snapshots[i - 1].t_ms);
    EXPECT_GE(r.snapshots[i].bytes_sent, r.snapshots[i - 1].bytes_sent);
    EXPECT_GE(r.snapshots[i].bytes_acked, r.snapshots[i - 1].bytes_acked);
    EXPECT_GE(r.snapshots[i].bytes_retrans, r.snapshots[i - 1].bytes_retrans);
  }
}

TEST(TcpFlowTest, SnapshotCadenceRespected) {
  const FlowResult r = run(leo_path(), 10000);
  // 10 s at 100 ms cadence: about 100 snapshots.
  EXPECT_NEAR(static_cast<double>(r.snapshots.size()), 100.0, 25.0);
}

// ------------------------------------------------------------ run_bytes

TEST(TcpFlowTest, RunBytesDeliversRequestedPayload) {
  TcpFlow flow(leo_path(), TcpOptions{}, stats::Rng(5));
  const FlowResult r = flow.run_bytes(1 << 20);
  EXPECT_GE(r.bytes_acked, 1u << 20);
}

TEST(TcpFlowTest, SmallTransferDominatedByRtt) {
  PathProfile p = leo_path();
  p.sat_loss = 0;
  p.handoff_rate_hz = 0;
  TcpFlow flow(p, TcpOptions{}, stats::Rng(6));
  const FlowResult r = flow.run_bytes(20 * 1024);  // ~14 packets
  EXPECT_LT(r.duration_ms, 5 * p.base_rtt_ms);
}

TEST(TcpFlowTest, LargerTransfersTakeLonger) {
  PathProfile p = leo_path();
  p.sat_loss = 0;
  p.handoff_rate_hz = 0;
  TcpFlow a(p, TcpOptions{}, stats::Rng(7));
  TcpFlow b(p, TcpOptions{}, stats::Rng(7));
  EXPECT_LT(a.run_bytes(100 * 1024).duration_ms, b.run_bytes(10 << 20).duration_ms);
}

TEST(TcpFlowTest, RunBytesRespectsDeadline) {
  PathProfile p = geo_path(false);
  p.bottleneck_mbps = 0.2;
  TcpFlow flow(p, TcpOptions{}, stats::Rng(8));
  const FlowResult r = flow.run_bytes(100 << 20, 5000.0);
  EXPECT_LT(r.duration_ms, 8000.0);
  EXPECT_LT(r.bytes_acked, 100u << 20);
}

TEST(FetchTimeTest, HandshakeAddsRtts) {
  PathProfile p = leo_path();
  p.sat_loss = 0;
  p.handoff_rate_hz = 0;
  stats::Rng r1(9), r2(9);
  const double no_hs = fetch_time_ms(p, 32 * 1024, 0.0, r1);
  const double with_hs = fetch_time_ms(p, 32 * 1024, 2.0, r2);
  EXPECT_NEAR(with_hs - no_hs, 2 * p.base_rtt_ms, p.base_rtt_ms);
}

// ------------------------------------------------------------ counters

// The transport.tcp.* counters flush once per TCP flow, whichever run
// mode ends it: one flow and exactly that flow's totals. QUIC flows are
// not counted.
TEST(TcpFlowTest, CountersAddExactlyEachTcpFlowAndNoQuicFlow) {
  auto& reg = obs::MetricsRegistry::global();
  const auto read = [&reg] {
    return std::array<std::uint64_t, 5>{
        reg.counter("transport.tcp.flows").value(),
        reg.counter("transport.tcp.bytes_sent").value(),
        reg.counter("transport.tcp.bytes_retrans").value(),
        reg.counter("transport.tcp.rtos").value(),
        reg.counter("transport.tcp.handoffs").value()};
  };
  PathProfile p = leo_path();
  p.handoff_rate_hz = 0.5;
  p.spurious_rto_prob = 0.05;
  for (const bool timed : {true, false}) {
    const auto before = read();
    const FlowResult r = timed ? TcpFlow(p, TcpOptions{}, stats::Rng(21)).run_for(10000)
                               : TcpFlow(p, TcpOptions{}, stats::Rng(22)).run_bytes(4 << 20);
    const auto after = read();
    ASSERT_GT(r.n_rtos, 0u);
    ASSERT_GT(r.n_handoffs, 0u);
    EXPECT_EQ(after[0] - before[0], 1u);
    EXPECT_EQ(after[1] - before[1], r.bytes_sent);
    EXPECT_EQ(after[2] - before[2], r.bytes_retrans);
    EXPECT_EQ(after[3] - before[3], r.n_rtos);
    EXPECT_EQ(after[4] - before[4], r.n_handoffs);
  }
  const auto before = read();
  const FlowResult quic = QuicFlow(p, QuicOptions{}, stats::Rng(23)).run_for(10000);
  ASSERT_GT(quic.bytes_sent, 0u);
  EXPECT_EQ(read(), before);
  QuicFlow(p, QuicOptions{}, stats::Rng(24)).run_bytes(1 << 20);
  EXPECT_EQ(read(), before);
}

// ------------------------------------------------------------ linkmodel

TEST(LinkModelTest, DownloadProfileDoublesAccessLatency) {
  orbit::AccessSample access;
  access.reachable = true;
  access.one_way_ms = 25.0;
  LinkTraits traits;
  stats::Rng rng(10);
  const PathProfile p = build_download_profile(access, traits, 10.0, rng);
  EXPECT_DOUBLE_EQ(p.base_rtt_ms, 60.0);
}

TEST(LinkModelTest, UploadUsesUplinkCapacity) {
  orbit::AccessSample access;
  access.reachable = true;
  access.one_way_ms = 25.0;
  LinkTraits traits;
  traits.down_mbps_median = 100;
  traits.up_mbps_median = 5;
  traits.down_mbps_sigma = 0.01;
  traits.up_mbps_sigma = 0.01;
  stats::Rng rng(11);
  const PathProfile down = build_download_profile(access, traits, 0.0, rng);
  const PathProfile up = build_upload_profile(access, traits, 0.0, rng);
  EXPECT_GT(down.bottleneck_mbps, 10 * up.bottleneck_mbps);
  EXPECT_GT(up.jitter_ms, down.jitter_ms);
}

TEST(LinkModelTest, PepFlagPropagates) {
  orbit::AccessSample access;
  access.reachable = true;
  access.one_way_ms = 300.0;
  LinkTraits traits;
  traits.pep = true;
  stats::Rng rng(12);
  EXPECT_TRUE(build_download_profile(access, traits, 5.0, rng).pep);
}

TEST(PathProfileTest, BdpComputation) {
  PathProfile p;
  p.bottleneck_mbps = 12.0;   // 1.5 MB/s
  p.base_rtt_ms = 1000.0;     // 1 s
  EXPECT_NEAR(p.bdp_packets(1500.0), 1000.0, 1e-6);
}

// -------------------------------------------------- parameterized sweeps

class RttSweep : public ::testing::TestWithParam<double> {};

TEST_P(RttSweep, HigherRttSlowsShortTransfers) {
  PathProfile p;
  p.base_rtt_ms = GetParam();
  p.bottleneck_mbps = 50;
  p.jitter_ms = 0.5;
  TcpFlow flow(p, TcpOptions{}, stats::Rng(13));
  const FlowResult r = flow.run_bytes(256 * 1024);
  // Short transfers are window-growth bound: duration ~ k * RTT.
  EXPECT_GT(r.duration_ms, 2 * GetParam());
  EXPECT_LT(r.duration_ms, 12 * GetParam() + 500);
}

INSTANTIATE_TEST_SUITE_P(Rtts, RttSweep, ::testing::Values(20.0, 50.0, 150.0, 300.0, 620.0));

class CapacitySweep : public ::testing::TestWithParam<double> {};

TEST_P(CapacitySweep, GoodputTracksCapacity) {
  PathProfile p;
  p.base_rtt_ms = 60;
  p.bottleneck_mbps = GetParam();
  p.jitter_ms = 1;
  const FlowResult r = run(p, 15000, 14);
  EXPECT_GT(r.goodput_mbps, 0.5 * GetParam());
  EXPECT_LE(r.goodput_mbps, 1.1 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(2.0, 10.0, 25.0, 100.0, 300.0));

class CongestionControlSweep : public ::testing::TestWithParam<CongestionControl> {};

TEST_P(CongestionControlSweep, BothCcVariantsConserveBytes) {
  TcpOptions opt;
  opt.cc = GetParam();
  TcpFlow flow(geo_path(false), opt, stats::Rng(15));
  const FlowResult r = flow.run_for(10000);
  EXPECT_EQ(r.bytes_sent, r.bytes_acked + r.bytes_retrans);
  EXPECT_GT(r.bytes_acked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, CongestionControlSweep,
                         ::testing::Values(CongestionControl::reno,
                                           CongestionControl::cubic));

}  // namespace
}  // namespace satnet::transport
