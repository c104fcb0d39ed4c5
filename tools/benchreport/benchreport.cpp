#include "benchreport.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace satnet::benchreport {

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- minimal recursive JSON parser, just enough for the BENCH files
// and our own ledger lines: objects, strings, numbers, booleans, null,
// and (flattened by index) arrays. ----

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }

  bool fail(const char* what) {
    if (error.empty()) {
      error = std::string(what) + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\' && pos < text.size()) {
        const char n = text[pos++];
        *out += n == 'n' ? '\n' : n == 't' ? '\t' : n;
      } else {
        *out += c;
      }
    }
    return fail("unterminated string");
  }

  /// Parses any value. Numeric/boolean leaves land in `metrics` under
  /// `key`; strings and nulls are skipped; objects/arrays recurse with
  /// dot-joined keys.
  bool parse_value(const std::string& key,
                   std::map<std::string, double>* metrics,
                   std::map<std::string, std::string>* strings) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end");
    const char c = text[pos];
    if (c == '{') return parse_object(key, metrics, strings);
    if (c == '[') {
      ++pos;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      std::size_t index = 0;
      for (;;) {
        if (!parse_value(key + "." + std::to_string(index), metrics, strings))
          return false;
        ++index;
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        break;
      }
      skip_ws();
      if (pos >= text.size() || text[pos] != ']') return fail("expected ]");
      ++pos;
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      if (strings != nullptr) (*strings)[key] = std::move(s);
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      (*metrics)[key] = 1.0;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      (*metrics)[key] = 0.0;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) return fail("expected value");
    pos = static_cast<std::size_t>(end - text.c_str());
    (*metrics)[key] = v;
    return true;
  }

  bool parse_object(const std::string& prefix,
                    std::map<std::string, double>* metrics,
                    std::map<std::string, std::string>* strings) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '{') return fail("expected {");
    ++pos;
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected :");
      ++pos;
      const std::string full = prefix.empty() ? key : prefix + "." + key;
      if (!parse_value(full, metrics, strings)) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      break;
    }
    skip_ws();
    if (pos >= text.size() || text[pos] != '}') return fail("expected }");
    ++pos;
    return true;
  }
};

}  // namespace

Direction metric_direction(const std::string& key) {
  // Gate families by suffix/substring; everything else is context
  // (counts, sizes-of-input, flags we can't rank).
  if (contains(key, "speedup") || contains(key, "hit_ratio") ||
      ends_with(key, "_met") || ends_with(key, "_ok") ||
      ends_with(key, "identical")) {
    return Direction::higher_better;
  }
  if (ends_with(key, "_ms") || ends_with(key, "_us") || ends_with(key, "_ns") ||
      ends_with(key, "_sec") || ends_with(key, "_bytes")) {
    return Direction::lower_better;
  }
  return Direction::info;
}

bool parse_bench_json(const std::string& text, const std::string& fallback_name,
                      BenchRun* out, std::string* error) {
  Parser p(text);
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> strings;
  if (!p.parse_object("", &metrics, &strings)) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  out->bench = fallback_name;
  if (const auto it = strings.find("bench"); it != strings.end()) {
    out->bench = it->second;
  }
  out->metrics = std::move(metrics);
  return true;
}

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string ledger_line(const BenchRun& run) {
  std::string line = "{\"type\":\"benchrun\",\"bench\":\"" +
                     json_escape(run.bench) + "\",\"run\":\"" +
                     json_escape(run.run_id) + "\",\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : run.metrics) {
    if (!first) line += ",";
    first = false;
    // Appended, not operator+: GCC 12 reports a false -Wrestrict on the
    // chain at -O3.
    line += '"';
    line += json_escape(key);
    line += "\":";
    line += fmt_double(value);
  }
  line += "}}";
  return line;
}

std::vector<BenchRun> parse_ledger(const std::string& text) {
  std::vector<BenchRun> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Parser p(line);
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> strings;
    if (!p.parse_object("", &metrics, &strings)) continue;
    const auto type = strings.find("type");
    if (type == strings.end() || type->second != "benchrun") continue;
    BenchRun run;
    if (const auto it = strings.find("bench"); it != strings.end()) {
      run.bench = it->second;
    }
    if (const auto it = strings.find("run"); it != strings.end()) {
      run.run_id = it->second;
    }
    // Flattened keys carry the "metrics." prefix; strip it back off.
    for (const auto& [key, value] : metrics) {
      if (key.rfind("metrics.", 0) == 0) run.metrics[key.substr(8)] = value;
    }
    out.push_back(std::move(run));
  }
  return out;
}

CheckResult check(const std::vector<BenchRun>& baseline,
                  const std::vector<BenchRun>& current, double tolerance,
                  bool ratios_only) {
  CheckResult result;
  for (const BenchRun& base : baseline) {
    // Latest current entry for the bench wins (ledgers append in order).
    const BenchRun* cur = nullptr;
    for (const BenchRun& c : current) {
      if (c.bench == base.bench) cur = &c;
    }
    if (cur == nullptr) {
      result.missing_benches.push_back(base.bench);
      continue;
    }
    for (const auto& [key, base_value] : base.metrics) {
      const auto it = cur->metrics.find(key);
      if (it == cur->metrics.end()) continue;
      MetricDelta d;
      d.bench = base.bench;
      d.key = key;
      d.direction = metric_direction(key);
      if (ratios_only && d.direction == Direction::lower_better) {
        d.direction = Direction::info;
      }
      d.baseline = base_value;
      d.current = it->second;
      d.ratio = base_value != 0 ? it->second / base_value : 0.0;
      switch (d.direction) {
        case Direction::lower_better:
          d.regression = it->second > base_value * (1.0 + tolerance);
          break;
        case Direction::higher_better:
          d.regression = it->second < base_value * (1.0 - tolerance);
          break;
        case Direction::info:
          d.regression = false;
          break;
      }
      if (d.regression) result.regressions.push_back(d);
      result.deltas.push_back(std::move(d));
    }
  }
  return result;
}

bool parse_tolerance(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v) || v < 0) return false;
  *out = v;
  return true;
}

std::string render_table(const CheckResult& result, double tolerance) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "benchreport: %zu metrics compared, %zu gated regression(s), "
                "tolerance %.0f%%\n",
                result.deltas.size(), result.regressions.size(),
                tolerance * 100.0);
  out += line;
  for (const auto& d : result.deltas) {
    const char* dir = d.direction == Direction::lower_better    ? "lower"
                      : d.direction == Direction::higher_better ? "higher"
                                                                : "info";
    std::snprintf(line, sizeof(line),
                  "  %-28s %-34s %12.4g -> %-12.4g (%6.1f%%) [%s]%s\n",
                  d.bench.c_str(), d.key.c_str(), d.baseline, d.current,
                  d.baseline != 0 ? (d.ratio - 1.0) * 100.0 : 0.0, dir,
                  d.regression ? " REGRESSED" : "");
    out += line;
  }
  for (const auto& bench : result.missing_benches) {
    std::snprintf(line, sizeof(line),
                  "  %-28s missing from current run set (not gated)\n",
                  bench.c_str());
    out += line;
  }
  return out;
}

}  // namespace satnet::benchreport
