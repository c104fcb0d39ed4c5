#include "obs/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace satnet::obs {

namespace {

/// "mlab.tests_generated" -> "satnet_mlab_tests_generated".
std::string wire_name(const std::string& name) {
  std::string out = "satnet_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- minimal JSON field extraction (parses only our own flat output:
// string / number / numeric-array values, no nesting). ----

/// `"key":` followed by `open`. Built by appending: GCC 12 reports a
/// false -Wrestrict on the equivalent operator+ chain at -O3.
std::string key_pattern(const char* key, const char* open) {
  std::string pat;
  pat.reserve(std::strlen(key) + std::strlen(open) + 3);
  pat += '"';
  pat += key;
  pat += "\":";
  pat += open;
  return pat;
}

bool json_string(const std::string& line, const char* key, std::string* out) {
  const std::string pat = key_pattern(key, "\"");
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return false;
  std::string value;
  for (std::size_t i = pos + pat.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char n = line[++i];
      if (n == 'u' && i + 4 < line.size()) {
        // \u00XX — only the control-char range json_escape emits.
        const unsigned code = static_cast<unsigned>(
            std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16));
        value += static_cast<char>(code);
        i += 4;
      } else {
        value += n == 'n' ? '\n' : n == 't' ? '\t' : n == 'r' ? '\r' : n;
      }
    } else if (c == '"') {
      *out = std::move(value);
      return true;
    } else {
      value += c;
    }
  }
  return false;
}

bool json_number(const std::string& line, const char* key, double* out) {
  const std::string pat = key_pattern(key, "");
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + pat.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

bool json_array(const std::string& line, const char* key, std::vector<double>* out) {
  const std::string pat = key_pattern(key, "[");
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return false;
  out->clear();
  const char* p = line.c_str() + pos + pat.size();
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    out->push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return true;
}

/// Inverse of prom_escape_text for NAME/HELP comment payloads.
std::string prom_unescape_text(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char n = s[++i];
      out += n == 'n' ? '\n' : n;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string metric_jsonl_line(const MetricValue& m) {
  std::string line = "{\"type\":\"" + to_string(m.kind) + "\",\"name\":\"" +
                     json_escape(m.name) + "\"";
  if (!m.help.empty()) line += ",\"help\":\"" + json_escape(m.help) + "\"";
  if (m.kind == MetricKind::histogram) {
    line += ",\"bounds\":[";
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      if (i > 0) line += ",";
      line += fmt_double(m.bounds[i]);
    }
    line += "],\"counts\":[";
    for (std::size_t i = 0; i < m.counts.size(); ++i) {
      if (i > 0) line += ",";
      line += std::to_string(m.counts[i]);
    }
    line += "],\"sum\":" + fmt_double(m.sum) +
            ",\"count\":" + std::to_string(m.count);
  } else {
    line += ",\"value\":" + fmt_double(m.value);
  }
  line += "}";
  return line;
}

/// Approximate quantile from per-bucket counts: the upper bound of the
/// bucket where the cumulative count crosses q (reported as "<= X").
double approx_quantile(const MetricValue& m, double q) {
  const double target = q * static_cast<double>(m.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < m.counts.size(); ++i) {
    cum += m.counts[i];
    if (static_cast<double>(cum) >= target) {
      return i < m.bounds.size() ? m.bounds[i] : m.bounds.empty()
                 ? 0.0
                 : m.bounds.back();
    }
  }
  return m.bounds.empty() ? 0.0 : m.bounds.back();
}

/// Writes `text` to `path` ("-" = stdout). False when the file cannot
/// be opened or the stream is bad after the write (a full disk,
/// /dev/full); the caller reports it.
bool write_out(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    std::cout.flush();
    return static_cast<bool>(std::cout);
  }
  std::ofstream file(path);
  file << text;
  file.close();
  return static_cast<bool>(file);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_escape_text(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string manifest_json(const RunManifest& manifest) {
  std::string line = "{\"type\":\"manifest\",\"tool\":\"" +
                     json_escape(manifest.tool) + "\",\"command\":\"" +
                     json_escape(manifest.command) +
                     "\",\"threads\":" + std::to_string(manifest.threads) +
                     ",\"wall_ms\":" + fmt_double(manifest.wall_ms);
  for (const auto& [key, value] : manifest.notes) {
    line += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  line += "}";
  return line;
}

std::string to_prometheus(const Snapshot& snapshot, const RunManifest& manifest) {
  std::string out = "# manifest: " + manifest_json(manifest) + "\n";
  for (const auto& m : snapshot.metrics) {
    const std::string wire = wire_name(m.name);
    // "# NAME" maps the wire name back to the registry name so our
    // parser (and humans) can round-trip without guessing at '_' vs '.'.
    // Comment payloads use exposition-format text escaping (\\, \n):
    // a raw newline in a name or help string would otherwise split the
    // comment and inject a bogus sample line.
    out += "# NAME " + wire + " " + prom_escape_text(m.name) + "\n";
    out += "# TYPE " + wire + " " + to_string(m.kind) + "\n";
    if (!m.help.empty())
      out += "# HELP " + wire + " " + prom_escape_text(m.help) + "\n";
    if (m.kind == MetricKind::histogram) {
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < m.counts.size(); ++i) {
        cum += m.counts[i];
        const std::string le =
            i < m.bounds.size() ? fmt_double(m.bounds[i]) : "+Inf";
        // fmt_double never emits characters needing escapes, but label
        // values follow the exposition escaping rules regardless.
        out += wire + "_bucket{le=\"" + prom_escape_label(le) + "\"} " +
               std::to_string(cum) + "\n";
      }
      out += wire + "_sum " + fmt_double(m.sum) + "\n";
      out += wire + "_count " + std::to_string(m.count) + "\n";
    } else {
      out += wire + " " + fmt_double(m.value) + "\n";
    }
  }
  return out;
}

std::string to_jsonl(const Snapshot& snapshot, const RunManifest& manifest) {
  std::string out = manifest_json(manifest) + "\n";
  for (const auto& m : snapshot.metrics) out += metric_jsonl_line(m) + "\n";
  return out;
}

std::string event_jsonl_line(const ResolvedEvent& event) {
  const auto& r = event.rec;
  std::string line = "{\"type\":\"event\",\"phase\":\"" +
                     json_escape(event.phase) + "\",\"kind\":\"" +
                     std::string(to_string(static_cast<EventKind>(r.kind))) +
                     "\",\"det\":" + std::to_string(r.det) +
                     ",\"shard\":" + std::to_string(r.shard) +
                     ",\"attempt\":" + std::to_string(r.attempt) +
                     ",\"seq\":" + std::to_string(r.seq) +
                     ",\"a\":" + std::to_string(r.a) +
                     ",\"b\":" + std::to_string(r.b) +
                     // wall_us last: the non-deterministic field, so
                     // golden/stability comparisons can strip a suffix.
                     ",\"wall_us\":" + std::to_string(r.wall_us) + "}";
  return line;
}

std::string events_jsonl(const std::vector<ResolvedEvent>& events) {
  std::string out;
  for (const auto& ev : events) out += event_jsonl_line(ev) + "\n";
  return out;
}

std::vector<ResolvedEvent> parse_events_jsonl(const std::string& text) {
  static const EventKind kKinds[] = {
      EventKind::phase_enter,  EventKind::phase_exit,
      EventKind::fault_hit,    EventKind::retry,
      EventKind::degrade,      EventKind::timeline_hit,
      EventKind::timeline_fallback, EventKind::queue_depth,
      EventKind::stall_flag};
  std::vector<ResolvedEvent> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::string type;
    if (!json_string(line, "type", &type) || type != "event") continue;
    ResolvedEvent ev;
    json_string(line, "phase", &ev.phase);
    std::string kind;
    json_string(line, "kind", &kind);
    for (const EventKind k : kKinds) {
      if (kind == to_string(k)) {
        ev.rec.kind = static_cast<std::uint16_t>(k);
        break;
      }
    }
    double v = 0;
    if (json_number(line, "det", &v)) ev.rec.det = static_cast<std::uint16_t>(v);
    if (json_number(line, "shard", &v)) ev.rec.shard = static_cast<std::uint32_t>(v);
    if (json_number(line, "attempt", &v)) ev.rec.attempt = static_cast<std::uint32_t>(v);
    if (json_number(line, "seq", &v)) ev.rec.seq = static_cast<std::uint32_t>(v);
    if (json_number(line, "a", &v)) ev.rec.a = static_cast<std::uint64_t>(v);
    if (json_number(line, "b", &v)) ev.rec.b = static_cast<std::uint64_t>(v);
    if (json_number(line, "wall_us", &v)) ev.rec.wall_us = static_cast<std::uint64_t>(v);
    out.push_back(std::move(ev));
  }
  return out;
}

Snapshot parse_prometheus(const std::string& text) {
  Snapshot snap;
  std::map<std::string, std::string> wire_to_name;
  std::map<std::string, MetricValue> metrics;  // keyed by wire name
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, wire, rest;
      ls >> hash >> kind >> wire >> rest;
      if (kind == "NAME") {
        // Everything after "<wire> " is the (escaped) registry name —
        // token extraction would truncate names containing spaces.
        const auto pos = line.find(wire);
        wire_to_name[wire] =
            prom_unescape_text(line.substr(pos + wire.size() + 1));
      } else if (kind == "TYPE") {
        MetricValue m;
        const auto it = wire_to_name.find(wire);
        m.name = it == wire_to_name.end() ? wire : it->second;
        m.kind = rest == "gauge"       ? MetricKind::gauge
                 : rest == "histogram" ? MetricKind::histogram
                                       : MetricKind::counter;
        metrics[wire] = std::move(m);
      } else if (kind == "HELP") {
        const auto pos = line.find(wire);
        if (auto it = metrics.find(wire); it != metrics.end()) {
          it->second.help =
              prom_unescape_text(line.substr(pos + wire.size() + 1));
        } else {
          // HELP precedes TYPE in the wild; ours doesn't, but tolerate.
          wire_to_name.emplace(wire, wire);
        }
      }
      continue;
    }
    // Sample line: "<wire>[_bucket{le=\"X\"}|_sum|_count] <value>".
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const auto brace = key.find('{');
    const std::string base = brace == std::string::npos ? key : key.substr(0, brace);
    if (auto it = metrics.find(base); it != metrics.end()) {
      it->second.value = value;
      continue;
    }
    auto ends_with = [&](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return base.size() > n && base.compare(base.size() - n, n, suffix) == 0;
    };
    if (ends_with("_bucket")) {
      const std::string parent = base.substr(0, base.size() - 7);
      if (auto it = metrics.find(parent); it != metrics.end()) {
        const auto le_pos = key.find("le=\"");
        const std::string le = key.substr(le_pos + 4, key.find('"', le_pos + 4) -
                                                          (le_pos + 4));
        if (le != "+Inf") it->second.bounds.push_back(std::strtod(le.c_str(), nullptr));
        it->second.counts.push_back(static_cast<std::uint64_t>(value));
      }
    } else if (ends_with("_sum")) {
      const std::string parent = base.substr(0, base.size() - 4);
      if (auto it = metrics.find(parent); it != metrics.end()) it->second.sum = value;
    } else if (ends_with("_count")) {
      const std::string parent = base.substr(0, base.size() - 6);
      if (auto it = metrics.find(parent); it != metrics.end()) {
        it->second.count = static_cast<std::uint64_t>(value);
      }
    }
  }
  for (auto& [wire, m] : metrics) {
    if (m.kind == MetricKind::histogram) {
      // De-cumulate the le-buckets back into per-bucket counts.
      for (std::size_t i = m.counts.size(); i-- > 1;) m.counts[i] -= m.counts[i - 1];
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;  // std::map iteration: already sorted by wire name ~ name order
}

Snapshot parse_jsonl(const std::string& text) {
  Snapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::string type;
    if (!json_string(line, "type", &type)) continue;
    if (type != "counter" && type != "gauge" && type != "histogram") continue;
    MetricValue m;
    m.kind = type == "gauge"       ? MetricKind::gauge
             : type == "histogram" ? MetricKind::histogram
                                   : MetricKind::counter;
    if (!json_string(line, "name", &m.name)) continue;
    json_string(line, "help", &m.help);
    if (m.kind == MetricKind::histogram) {
      std::vector<double> counts;
      json_array(line, "bounds", &m.bounds);
      json_array(line, "counts", &counts);
      for (const double c : counts) m.counts.push_back(static_cast<std::uint64_t>(c));
      json_number(line, "sum", &m.sum);
      double count = 0;
      json_number(line, "count", &count);
      m.count = static_cast<std::uint64_t>(count);
    } else {
      json_number(line, "value", &m.value);
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

std::string summary_text(const Snapshot& snapshot, const RunManifest& manifest) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "== observability summary: %s (%u threads, %.0f ms wall) ==\n",
                manifest.tool.empty() ? "run" : manifest.tool.c_str(),
                manifest.threads, manifest.wall_ms);
  out += line;
  for (const auto& m : snapshot.metrics) {
    switch (m.kind) {
      case MetricKind::counter:
        std::snprintf(line, sizeof(line), "  %-36s %14.0f\n", m.name.c_str(),
                      m.value);
        break;
      case MetricKind::gauge:
        std::snprintf(line, sizeof(line), "  %-36s %14.0f (gauge)\n",
                      m.name.c_str(), m.value);
        break;
      case MetricKind::histogram:
        std::snprintf(line, sizeof(line),
                      "  %-36s n=%-10" PRIu64 " mean=%-9.3g p50<=%-9.3g "
                      "p95<=%-9.3g\n",
                      m.name.c_str(), m.count,
                      m.count == 0 ? 0.0 : m.sum / static_cast<double>(m.count),
                      approx_quantile(m, 0.50), approx_quantile(m, 0.95));
        break;
    }
    out += line;
  }
  // Derived: the one end-of-run roll-up of the epoch timeline. Hit
  // ratio only when a lookup actually happened — a build with zero
  // replays must not report a vacuous 0%.
  const MetricValue* tl_hit = snapshot.find("timeline.replay.hit");
  const MetricValue* tl_fallback = snapshot.find("timeline.replay.fallback");
  const MetricValue* tl_epochs = snapshot.find("timeline.build.epochs");
  const double tl_lookups =
      (tl_hit ? tl_hit->value : 0.0) + (tl_fallback ? tl_fallback->value : 0.0);
  if (tl_lookups > 0 || (tl_epochs && tl_epochs->value > 0)) {
    const MetricValue* tl_ms = snapshot.find("timeline.build.ms");
    if (tl_lookups > 0) {
      std::snprintf(line, sizeof(line),
                    "  timeline: %.0f replay hits / %.0f fallbacks (%.1f%% hit "
                    "ratio, %.0f epochs built in %.0f ms)\n",
                    tl_hit ? tl_hit->value : 0.0,
                    tl_fallback ? tl_fallback->value : 0.0,
                    100.0 * (tl_hit ? tl_hit->value : 0.0) / tl_lookups,
                    tl_epochs ? tl_epochs->value : 0.0,
                    tl_ms ? tl_ms->value : 0.0);
    } else {
      std::snprintf(line, sizeof(line),
                    "  timeline: no replays, %.0f epochs built in %.0f ms\n",
                    tl_epochs->value, tl_ms ? tl_ms->value : 0.0);
    }
    out += line;
  }
  // Derived: per-phase profile table. ShardedCampaign's
  // profile.<phase>.<field> counters aggregate shard wall/queue-wait/task
  // counts; the table groups them back by phase. snapshot.metrics is
  // name-sorted, so the three fields of one phase are adjacent and
  // phases emerge in order.
  struct PhaseRow {
    std::string phase;
    double wall_us = 0, queue_wait_us = 0, tasks = 0;
  };
  std::vector<PhaseRow> rows;
  for (const auto& m : snapshot.metrics) {
    if (m.kind != MetricKind::counter || m.name.rfind("profile.", 0) != 0)
      continue;
    const auto dot = m.name.rfind('.');
    const std::string phase = m.name.substr(8, dot - 8);
    const std::string field = m.name.substr(dot + 1);
    if (rows.empty() || rows.back().phase != phase)
      rows.push_back(PhaseRow{phase, 0, 0, 0});
    PhaseRow& row = rows.back();
    if (field == "wall_us") row.wall_us = m.value;
    else if (field == "queue_wait_us") row.queue_wait_us = m.value;
    else if (field == "tasks") row.tasks = m.value;
  }
  if (!rows.empty()) {
    out += "  phase profile:\n";
    for (const PhaseRow& row : rows) {
      std::snprintf(line, sizeof(line),
                    "    %-28s tasks=%-6.0f wall=%-9.1fms queue-wait=%.1fms\n",
                    row.phase.c_str(), row.tasks, row.wall_us / 1000.0,
                    row.queue_wait_us / 1000.0);
      out += line;
    }
  }
  // Derived: flight-recorder roll-up when the recorder was enabled.
  const MetricValue* rec_events = snapshot.find("recorder.events");
  const MetricValue* rec_dropped = snapshot.find("recorder.dropped");
  if (rec_events && rec_events->value > 0) {
    std::snprintf(line, sizeof(line),
                  "  flight recorder: %.0f events flushed, %.0f dropped to "
                  "ring overflow\n",
                  rec_events->value, rec_dropped ? rec_dropped->value : 0.0);
    out += line;
  }
  // Derived: fault-injection roll-up when any fault.hit.* counter fired.
  double fault_hits = 0;
  for (const auto& m : snapshot.metrics) {
    if (m.kind == MetricKind::counter && m.name.rfind("fault.hit.", 0) == 0) {
      // satlint: deterministic-merge: snapshot.metrics is sorted by name
      fault_hits += m.value;
    }
  }
  if (fault_hits > 0) {
    const MetricValue* degraded = snapshot.find("runtime.shard.degraded");
    const MetricValue* retries = snapshot.find("runtime.shard.retry");
    std::snprintf(line, sizeof(line),
                  "  fault injection: %.0f hits, %.0f retries, %.0f degraded "
                  "shards\n",
                  fault_hits, retries ? retries->value : 0.0,
                  degraded ? degraded->value : 0.0);
    out += line;
  }
  return out;
}

std::vector<std::string> nonfinite_metrics(const Snapshot& snapshot) {
  std::vector<std::string> out;
  for (const MetricValue& m : snapshot.metrics) {
    bool bad = !std::isfinite(m.value) || !std::isfinite(m.sum);
    for (const double b : m.bounds) bad = bad || !std::isfinite(b);
    if (bad) out.push_back(m.name);
  }
  return out;
}

bool write_metrics_file(const std::string& path, const Snapshot& snapshot,
                        const RunManifest& manifest) {
  return write_out(path, to_prometheus(snapshot, manifest));
}

bool write_trace_file(const std::string& path, const Snapshot& snapshot,
                      const std::vector<ResolvedEvent>& events,
                      const RunManifest& manifest) {
  return write_out(path, to_jsonl(snapshot, manifest) + events_jsonl(events));
}

bool write_events_file(const std::string& path, const std::vector<ResolvedEvent>& events,
                       const RunManifest& manifest) {
  return write_out(path, manifest_json(manifest) + "\n" + events_jsonl(events));
}

}  // namespace satnet::obs
