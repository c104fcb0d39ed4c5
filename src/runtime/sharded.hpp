// ShardedCampaign: deterministic fan-out/fan-in for campaign and analysis
// layers.
//
// A campaign is split into independent shards; each shard derives all of
// its randomness from a stable key (never from "how many shards ran
// before me"), runs to completion on a worker, and produces a value. The
// values are merged in shard-index order, so the overall result is a pure
// function of (seed, config) — bit-identical for any thread count,
// including 1 (which runs inline, with no threads spawned).
//
// Discipline for shard authors:
//   * derive the shard's Rng with Rng::fork_stable(shard key), keyed by
//     stable identity (operator name, probe id, chunk index) — never by
//     loop position;
//   * share only immutable inputs across shards (the World, datasets,
//     configs);
//   * accumulate into shard-local state, returned as the shard value.
//
// Failure semantics (RetryPolicy): a throwing shard is retried up to
// max_attempts times with deterministic exponential backoff (wall-clock
// only — the retry schedule never feeds the results). A shard that
// exhausts its attempts is either quarantined — degrade mode: its slot
// is filled with a default-constructed Result, the campaign completes,
// and the CampaignReport records exactly which shards degraded and why —
// or, in abort mode, the error of the lowest-indexed failing shard is
// rethrown (deterministic, independent of scheduling) *after* every
// shard has run, so no completed shard's work is silently lost by an
// early unwind. The fault::Hook's shard_failure events inject failures
// here, keyed by (phase, shard, attempt) so they land identically at any
// thread count.
//
// Observability: every run records each shard's wall-clock into the
// runtime.shard.latency_ms histogram, the fan-in (slot collection) into
// runtime.shard.merge_us, retries and quarantines into
// runtime.shard.retry / runtime.shard.degraded, and the per-phase
// profile into profile.<phase>.{wall_us,queue_wait_us,tasks}. Each
// attempt runs inside an obs::ShardScope, so with the flight recorder
// on it is bracketed by phase_enter/phase_exit records under the
// campaign's phase name. All of it is wall-clock-only telemetry; shard
// results never depend on it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/hook.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/thread_pool.hpp"

namespace satnet::runtime {

/// Splits `n_items` into contiguous [begin, end) ranges of at most
/// `max_chunk` items. Used to shard one big operator into several shards.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t n_items, std::size_t max_chunk);

/// How a campaign treats throwing shards.
struct RetryPolicy {
  /// Total attempts per shard (first run included). 1 = no retry.
  std::size_t max_attempts = 1;
  /// Backoff before attempt k (k >= 1): backoff_base_ms * 2^(k-1).
  /// Wall-clock only; 0 disables sleeping (tests, CI).
  double backoff_base_ms = 0.0;
  /// true: quarantine shards that exhaust attempts (slot becomes a
  /// default-constructed Result, campaign completes, report says which).
  /// false: rethrow the lowest-indexed shard error after all shards ran.
  bool degrade = false;
};

/// The conventional policy for tools that should survive an injected
/// fault plan: under an active fault::Hook, one retry then degrade
/// (quarantined shards become default results, counted in the report
/// and fault.hit.* metrics); with no hook, the abort default. The paper
/// report and golden generators use this as-is; satnetctl overrides it with
/// its explicit --retries/--degrade flags.
inline RetryPolicy degrade_under_faults() {
  RetryPolicy policy;
  if (fault::Hook::active() != nullptr) {
    policy.max_attempts = 2;
    policy.degrade = true;
  }
  return policy;
}

/// What actually happened to a campaign's shards. Deterministic for a
/// given (seed, config, plan): vectors are in shard-index order.
struct CampaignReport {
  std::string phase;
  std::size_t shards = 0;
  std::size_t retries = 0;   ///< re-attempts across all shards
  std::size_t degraded = 0;  ///< shards quarantined with default results
  std::vector<std::size_t> degraded_shards;
  std::vector<std::string> degraded_errors;  ///< what() per degraded shard

  bool clean() const { return degraded == 0 && retries == 0; }
};

template <typename Result>
class ShardedCampaign {
 public:
  using ShardFn = std::function<Result(std::size_t shard)>;

  /// `phase` labels this campaign's recorder events and profile.*
  /// counters ("mlab.campaign", "ripe.atlas", ...), and is the target
  /// fault-plan shard_failure events match against.
  ShardedCampaign(std::size_t n_shards, ShardFn fn, std::string phase = "campaign")
      : n_shards_(n_shards), fn_(std::move(fn)), phase_(std::move(phase)) {}

  /// Runs every shard and returns the results in shard-index order.
  /// `threads` resolves via resolve_threads; 1 runs inline. Abort-mode
  /// failure semantics (see RetryPolicy) with no retries.
  std::vector<Result> run(unsigned threads = 0) const {
    return run_with_report(threads, RetryPolicy{}, nullptr);
  }

  /// run() with explicit failure policy and optional accounting.
  /// `report` (when non-null) is overwritten with what happened; in
  /// degrade mode Result must be default-constructible.
  std::vector<Result> run_with_report(unsigned threads, const RetryPolicy& policy,
                                      CampaignReport* report) const {
    const unsigned n_threads = resolve_threads(threads);
    const std::size_t max_attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
    std::vector<std::optional<Result>> slots(n_shards_);
    std::vector<std::exception_ptr> errors(n_shards_);

    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    obs::Counter& shards_run =
        reg.counter("runtime.shard.count", "campaign shards executed");
    obs::Counter& retries_total =
        reg.counter("runtime.shard.retry", "shard attempts after a failure");
    obs::Counter& merge_us =
        reg.counter("runtime.shard.merge_us", "fan-in time collecting shard slots");
    obs::Histogram& latency = reg.histogram(
        "runtime.shard.latency_ms", obs::latency_buckets_ms(),
        "per-shard wall-clock");
    std::string profile = "profile.";
    profile += phase_;
    obs::Counter& phase_wall_us =
        reg.counter(profile + ".wall_us", "total shard wall time for the phase");
    obs::Counter& phase_queue_wait_us = reg.counter(
        profile + ".queue_wait_us",
        "total dispatch latency: start - max(submit, worker's previous shard end)");
    obs::Counter& phase_tasks =
        reg.counter(profile + ".tasks", "shard attempts profiled");

    // Retry accounting is written by workers; an atomic keeps it
    // race-free, and the total is scheduling-independent because the
    // attempt schedule is deterministic per shard.
    std::atomic<std::size_t> run_retries{0};

    const auto timed_attempt = [&](std::size_t i, std::size_t attempt,
                                   double queue_wait_ms) {
      // Flight-recorder scope: the shard's event stream (phase enter/
      // exit, fault hits, retries) lands in a per-shard ring whose
      // content is deterministic — only wall_us varies run to run.
      obs::ShardScope rec_scope(phase_, i, attempt);
      if (attempt > 0) {
        obs::FlightRecorder::global().record(obs::EventKind::retry, attempt);
      }
      // satlint:allow(nondet-source): shard latency telemetry; shard results never read the clock
      // satlint:allow(nondet-taint): t0 feeds only the shard_ms report field; merged results are clock-free
      const auto t0 = std::chrono::steady_clock::now();
      if (const fault::Hook* hook = fault::Hook::active()) {
        if (hook->fail_shard(phase_, i, attempt)) {
          throw fault::InjectedShardFailure(phase_, i, attempt);
        }
      }
      Result r = fn_(i);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              // satlint:allow(nondet-source): shard latency telemetry; shard results never read the clock
              // satlint:allow(nondet-taint): wall_ms lands in latency histograms only; the shard Result is untouched
              std::chrono::steady_clock::now() - t0)
              .count();
      latency.observe(wall_ms);
      phase_wall_us.add(static_cast<std::uint64_t>(wall_ms * 1000.0));
      if (attempt == 0) {
        phase_queue_wait_us.add(static_cast<std::uint64_t>(queue_wait_ms * 1000.0));
      }
      phase_tasks.add(1);
      shards_run.add(1);
      return r;
    };

    // One shard, all attempts. Errors are captured, never thrown across
    // the worker boundary, so every shard runs to a verdict regardless
    // of what other shards did — the inline and pooled paths share
    // exactly this code and therefore exactly these semantics.
    const auto guarded_shard = [&](std::size_t i, double queue_wait_ms) {
      for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          retries_total.add(1);
          run_retries.fetch_add(1, std::memory_order_relaxed);
          if (policy.backoff_base_ms > 0) {
            const double ms =
                policy.backoff_base_ms * static_cast<double>(1ull << (attempt - 1));
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
          }
        }
        try {
          slots[i].emplace(timed_attempt(i, attempt, queue_wait_ms));
          errors[i] = nullptr;
          return;
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };

    if (n_threads <= 1 || n_shards_ <= 1) {
      for (std::size_t i = 0; i < n_shards_; ++i) guarded_shard(i, 0.0);
    } else {
      ThreadPool pool(n_threads);
      for (std::size_t i = 0; i < n_shards_; ++i) {
        // satlint:allow(nondet-source): queue-wait telemetry for the phase profile; shard results never read the clock
        // satlint:allow(nondet-taint): submit_t feeds only the profile's wait_ms; guarded_shard ignores it for results
        const auto submit_t = std::chrono::steady_clock::now();
        pool.submit([i, submit_t, &guarded_shard] {
          // Queue wait is dispatch latency: from the later of the submit
          // and this worker's previous shard end to the start. Shards
          // queued together wait in turn, not all at once, so
          // sum(wait) + sum(shard wall) <= threads * wall. The pool's
          // workers live for this run only, so the thread-local end is
          // always one of this run's shards.
          thread_local std::chrono::steady_clock::time_point last_end{};
          // satlint:allow(nondet-source): queue-wait telemetry for the phase profile; shard results never read the clock
          // satlint:allow(nondet-taint): start feeds only the profile's wait_ms; shard results are computed from (i, seed) alone
          const auto start = std::chrono::steady_clock::now();
          const double wait_ms = std::chrono::duration<double, std::milli>(
                                     start - std::max(submit_t, last_end))
                                     .count();
          guarded_shard(i, wait_ms);
          // satlint:allow(nondet-source): queue-wait telemetry for the phase profile; shard results never read the clock
          // satlint:allow(nondet-taint): last_end feeds only the next shard's wait_ms; shard results never read it
          last_end = std::chrono::steady_clock::now();
        });
      }
      pool.wait_idle();
    }

    if (report) {
      report->phase = phase_;
      report->shards = n_shards_;
      report->retries = run_retries.load(std::memory_order_relaxed);
      report->degraded = 0;
      report->degraded_shards.clear();
      report->degraded_errors.clear();
    }
    return collect(std::move(slots), errors, policy, report, merge_us, phase_,
                   max_attempts);
  }

  std::size_t shards() const { return n_shards_; }
  const std::string& phase() const { return phase_; }

 private:
  static std::vector<Result> collect(std::vector<std::optional<Result>> slots,
                                     const std::vector<std::exception_ptr>& errors,
                                     const RetryPolicy& policy, CampaignReport* report,
                                     obs::Counter& merge_us, const std::string& phase,
                                     std::size_t max_attempts) {
    if (!policy.degrade) {
      for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i]) continue;
        // Abort-mode failure: the run is about to unwind, so dump the
        // flight-recorder snapshot first — this is the black box the
        // postmortem exists for. (No-op when the recorder is off.)
        std::string reason = "abort-mode failure in phase " + phase +
                             ": shard " + std::to_string(i) + " failed after " +
                             std::to_string(max_attempts) + " attempt(s)";
        try {
          std::rethrow_exception(errors[i]);
        } catch (const std::exception& e) {
          reason += ": ";
          reason += e.what();
        } catch (...) {
        }
        obs::FlightRecorder::global().dump_postmortem(reason);
        std::rethrow_exception(errors[i]);
      }
    }
    obs::Counter& degraded_total = obs::MetricsRegistry::global().counter(
        "runtime.shard.degraded", "shards quarantined with default results");
    // satlint:allow(nondet-source): fan-in timing telemetry; merged values never read the clock
    // satlint:allow(nondet-taint): t0 feeds only collect-latency telemetry; the merged vector is a pure function of shard results
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Result> out;
    out.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (errors[i]) {
        // Quarantined: a default slot keeps the merge shard-count stable
        // and the accounting explicit.
        out.emplace_back();
        degraded_total.add(1);
        // The quarantine verdict is deterministic (same shard fails at
        // any thread count), so the degrade event is a det record; it
        // lands after the shard's scoped stream in the sort order.
        obs::FlightRecorder::global().record_for_shard(
            phase, i, max_attempts - 1, obs::EventKind::degrade, max_attempts);
        if (report) {
          ++report->degraded;
          report->degraded_shards.push_back(i);
          try {
            std::rethrow_exception(errors[i]);
          } catch (const std::exception& e) {
            report->degraded_errors.emplace_back(e.what());
          } catch (...) {
            report->degraded_errors.emplace_back("unknown error");
          }
        }
      } else {
        out.push_back(std::move(*slots[i]));
      }
    }
    merge_us.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            // satlint:allow(nondet-source): fan-in timing telemetry; merged values never read the clock
            // satlint:allow(nondet-taint): merge_us is a counter read by dashboards, never by the merged results
            std::chrono::steady_clock::now() - t0)
            .count()));
    return out;
  }

  std::size_t n_shards_;
  ShardFn fn_;
  std::string phase_;
};

}  // namespace satnet::runtime
