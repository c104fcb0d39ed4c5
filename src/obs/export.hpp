// Exporters for metric snapshots and flight-recorder event streams,
// plus the run manifest that stamps every export with what produced it.
//
// Two formats:
//   * Prometheus text exposition — counters/gauges as single samples,
//     histograms as cumulative le-buckets + _sum/_count. Metric names
//     are dot-separated internally ("mlab.tests_generated") and become
//     "satnet_mlab_tests_generated" on the wire. The manifest rides
//     along as "# manifest:" comment lines.
//   * JSON lines — one object per line, first line the manifest
//     ({"type":"manifest",...}), then one line per metric and one per
//     recorder event. This is the machine-readable trace format
//     (--trace-out); a shard's timing is its phase_exit wall_us minus
//     its phase_enter wall_us.
//
// Both formats have parsers good enough to round-trip our own output;
// the unit tests feed exports back through them and require every
// registered metric to survive.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace satnet::obs {

/// JSON string escaping shared by every JSONL writer: `"` `\`,
/// whitespace escapes, and \u00XX for remaining control characters.
std::string json_escape(const std::string& s);

/// Prometheus exposition-format escaping for label *values*: `\\`,
/// `\"`, `\n` (the only escapes the format defines for labels).
std::string prom_escape_label(const std::string& s);

/// Prometheus escaping for HELP/comment text: `\\` and `\n` (a raw
/// newline would otherwise split the comment into a bogus sample line).
std::string prom_escape_text(const std::string& s);

/// What produced an export: the tool, its full command line, and the
/// knobs that matter for reproducing the run. Wall-clock only — the
/// manifest never feeds back into simulation state.
struct RunManifest {
  std::string tool;     ///< e.g. "satnetctl campaign"
  std::string command;  ///< full argv, space-joined
  unsigned threads = 0;
  double wall_ms = 0;   ///< end-to-end run wall-clock
  /// Free-form extras (seed, scale, ...), exported verbatim.
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Manifest as a single JSON object (one JSONL line, no trailing \n).
std::string manifest_json(const RunManifest& manifest);

/// Prometheus text exposition of a snapshot, manifest as comments.
std::string to_prometheus(const Snapshot& snapshot, const RunManifest& manifest);

/// JSONL: manifest line, then one line per metric.
std::string to_jsonl(const Snapshot& snapshot, const RunManifest& manifest);

/// One flight-recorder event as a JSONL line (no trailing \n). The
/// deterministic fields come first; `wall_us` is last so goldens can
/// strip it with a suffix cut.
std::string event_jsonl_line(const ResolvedEvent& event);

/// JSONL event lines for a drained/snapshotted recorder stream.
std::string events_jsonl(const std::vector<ResolvedEvent>& events);

/// Parses event lines out of a JSONL document (manifest and metric
/// lines are ignored).
std::vector<ResolvedEvent> parse_events_jsonl(const std::string& text);

/// Parses Prometheus text produced by to_prometheus back into a
/// Snapshot (metrics sorted by name; manifest comments ignored).
Snapshot parse_prometheus(const std::string& text);

/// Parses JSONL produced by to_jsonl / write_trace_file. Event and
/// manifest lines are ignored; metric lines are recovered.
Snapshot parse_jsonl(const std::string& text);

/// Human-readable summary of a snapshot: counters, gauges, histogram
/// count/mean, plus derived lines (cone-prefilter ratio) when the
/// underlying counters are present.
std::string summary_text(const Snapshot& snapshot, const RunManifest& manifest);

/// Names of metrics carrying a non-finite value (NaN/Inf in the scalar
/// value, a histogram sum, or a bucket bound — +Inf overflow bounds are
/// implicit and never stored, so any non-finite here is a bug). Empty
/// means every exported number is finite; the matrix invariant harness
/// gates on exactly this.
std::vector<std::string> nonfinite_metrics(const Snapshot& snapshot);

// The file writers below take `path` = "-" for stdout. Each returns
// false when the file cannot be opened or the stream is bad after the
// write (a full disk, /dev/full); they print nothing, so the caller
// reports the failure once.

/// Writes Prometheus text (manifest as comments).
bool write_metrics_file(const std::string& path, const Snapshot& snapshot,
                        const RunManifest& manifest);

/// Writes JSONL: manifest, metrics, then flight-recorder events.
bool write_trace_file(const std::string& path, const Snapshot& snapshot,
                      const std::vector<ResolvedEvent>& events,
                      const RunManifest& manifest);

/// Writes a flight-recorder drain: the manifest line, then the events.
bool write_events_file(const std::string& path, const std::vector<ResolvedEvent>& events,
                       const RunManifest& manifest);

}  // namespace satnet::obs
