#include "io/session.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>

#include "fault/hook.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "orbit/timeline.hpp"
#include "runtime/thread_pool.hpp"

namespace satnet::io {

namespace {

/// strtod over the whole string: no leading space, no trailing junk.
bool parse_real(const std::string& s, double* out) {
  if (s.empty() || s.front() == ' ' || s.front() == '\t') return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return *end == '\0' && std::isfinite(*out);
}

/// Decimal digits only (no sign, no space), no overflow.
bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

std::string fmt_real(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

const std::string* lookup(const std::vector<std::pair<std::string, std::string>>& kv,
                          std::string_view name) {
  for (const auto& [k, v] : kv) {
    if (k == name) return &v;
  }
  return nullptr;
}

std::string flag_names(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& f : flags) {
    if (!out.empty()) out += ' ';
    out += f.name;
  }
  return out;
}

}  // namespace

Check integer_in(std::uint64_t lo, std::uint64_t hi) {
  return {"an integer in " + std::to_string(lo) + ".." + std::to_string(hi),
          [lo, hi](const std::string& s) {
            std::uint64_t v = 0;
            return parse_u64(s, &v) && v >= lo && v <= hi;
          }};
}

Check real_in(double lo, double hi, bool lo_open) {
  std::string what = "a number ";
  if (std::isinf(hi)) {
    what += (lo_open ? "> " : ">= ") + fmt_real(lo);
  } else {
    what += "in ";
    what += lo_open ? "(" : "[";
    what += fmt_real(lo) + ", " + fmt_real(hi) + "]";
  }
  return {what, [lo, hi, lo_open](const std::string& s) {
            double v = 0;
            return parse_real(s, &v) && (lo_open ? v > lo : v >= lo) && v <= hi;
          }};
}

Check finite_real() {
  return {"a finite number", [](const std::string& s) {
            double v = 0;
            return parse_real(s, &v);
          }};
}

Check one_of(std::vector<std::string> choices) {
  std::string what = "one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) what += '|';
    what += choices[i];
  }
  return {what, [choices = std::move(choices)](const std::string& s) {
            for (const std::string& c : choices) {
              if (s == c) return true;
            }
            return false;
          }};
}

Check path() {
  return {"a path", [](const std::string& s) { return !s.empty(); }};
}

bool Args::has(std::string_view name) const { return lookup(given_, name) != nullptr; }

const std::string& Args::str(std::string_view name) const {
  static const std::string kEmpty;
  if (const std::string* v = lookup(given_, name)) return *v;
  if (const std::string* v = lookup(fallbacks_, name)) return *v;
  return kEmpty;
}

double Args::real(std::string_view name) const {
  return std::strtod(str(name).c_str(), nullptr);
}

std::uint64_t Args::integer(std::string_view name) const {
  return std::strtoull(str(name).c_str(), nullptr, 10);
}

std::string parse_args(int argc, char* const* argv, int first,
                       const std::vector<Flag>& flags,
                       const std::vector<std::string>& positionals, Args* out) {
  *out = Args{};
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (out->positionals_.size() == positionals.size()) {
        return "unexpected argument '" + arg + "' (flags: " + flag_names(flags) + ")";
      }
      out->positionals_.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == name) flag = &f;
    }
    if (flag == nullptr) {
      return "unknown flag '" + name + "' (flags: " + flag_names(flags) + ")";
    }
    if (out->has(name)) return name + " given twice";
    std::string value;
    if (flag->metavar.empty()) {
      if (eq != std::string::npos) return name + " takes no value";
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return name + " is missing its value (" + flag->check.what + ")";
    }
    if (!flag->metavar.empty() && !flag->check.accepts(value)) {
      return name + " expects " + flag->check.what + ", got '" + value + "'";
    }
    out->given_.emplace_back(name, std::move(value));
  }
  if (out->positionals_.size() < positionals.size()) {
    return "missing " + positionals[out->positionals_.size()];
  }
  for (const Flag& f : flags) {
    if (!f.fallback.empty()) out->fallbacks_.emplace_back(f.name, f.fallback);
  }
  return "";
}

std::string flag_synopsis(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& f : flags) {
    if (!out.empty()) out += ' ';
    out += "[" + f.name;
    if (!f.metavar.empty()) out += " " + f.metavar;
    out += "]";
  }
  return out;
}

std::string flag_help(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& f : flags) {
    std::string head = "  " + f.name;
    if (!f.metavar.empty()) head += " " + f.metavar;
    if (head.size() < 28) head.resize(28, ' ');
    std::string line = head + " " + f.help;
    if (!f.metavar.empty()) {
      line += " [" + f.check.what;
      if (!f.fallback.empty()) line += "; default " + f.fallback;
      line += "]";
    }
    out += line + "\n";
  }
  return out;
}

RunSession::RunSession(int argc, char** argv, std::string tool)
    : tool_(std::move(tool)), start_us_(obs::FlightRecorder::global().wall_now_us()) {
  if (tool_.empty()) {
    const std::string argv0 = argv[0];
    tool_ = argv0.substr(argv0.find_last_of('/') + 1);
  }
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command_ += ' ';
    command_ += argv[i];
  }
}

const std::vector<Flag>& RunSession::shared_flags() {
  static const std::vector<Flag> flags = {
      {"--threads", "N", integer_in(0, 1024), "0",
       "worker threads, 0 = one per hardware thread; output is identical for any"},
      {"--metrics-out", "PATH", path(), "",
       "Prometheus text export at exit ('-' = stdout)"},
      {"--trace-out", "PATH", path(), "",
       "JSON lines at exit: manifest, metrics, flight-recorder events ('-' = stdout)"},
      {"--recorder-out", "PATH", path(), "",
       "drain the flight recorder to JSONL ('-' = stdout); postmortems at "
       "PATH.postmortem"},
      {"--recorder-ring", "N", integer_in(2, 1048576),
       std::to_string(obs::FlightRecorder::global().ring_capacity()),
       "per-shard flight-recorder ring capacity"},
      {"--watchdog-ms", "N", integer_in(0, 60000),
       std::to_string(runtime::pool_watchdog_poll_ms()),
       "pool watchdog poll interval, 0 = off"},
      {"--watchdog-threshold-ms", "X",
       real_in(0, std::numeric_limits<double>::infinity(), /*lo_open=*/true),
       fmt_real(runtime::pool_watchdog_threshold_ms()),
       "stall threshold for the pool watchdog"},
      {"--fault-plan", "PATH", path(), "",
       "install a deterministic fault plan for the run (see src/fault)"},
      {"--no-timeline", "", {}, "", "ablate the epoch-timeline precompute"},
  };
  return flags;
}

void RunSession::start(int argc, char** argv, int first, const std::vector<Flag>& own,
                       const std::vector<std::string>& positionals) {
  std::vector<Flag> flags = own;
  flags.insert(flags.end(), shared_flags().begin(), shared_flags().end());
  const std::string err = parse_args(argc, argv, first, flags, positionals, &args_);
  if (!err.empty()) {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), err.c_str());
    std::exit(2);
  }

  if (args_.has("--no-timeline")) orbit::set_timeline_enabled(false);
  // Either event export turns the recorder on; a postmortem lands
  // beside the --recorder-out file, else beside the --trace-out one.
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  const char* events_flag = args_.has("--recorder-out") ? "--recorder-out"
                            : args_.has("--trace-out")  ? "--trace-out"
                                                        : nullptr;
  if (events_flag != nullptr) {
    rec.set_enabled(true);
    const std::string& out = args_.str(events_flag);
    if (out != "-") rec.set_postmortem_path(out + ".postmortem");
  }
  if (args_.has("--recorder-ring")) {
    rec.set_ring_capacity(args_.integer("--recorder-ring"));
  }
  if (args_.has("--watchdog-ms") || args_.has("--watchdog-threshold-ms")) {
    runtime::set_pool_watchdog(static_cast<unsigned>(args_.integer("--watchdog-ms")),
                               args_.real("--watchdog-threshold-ms"));
  }
  if (args_.has("--fault-plan")) {
    const std::string& plan_path = args_.str("--fault-plan");
    try {
      fault::FaultPlan plan = fault::FaultPlan::load_file(plan_path);
      fault_summary_ = plan.summary();
      fault::Hook::install(std::move(plan));
      std::printf("fault plan %s: %s\n", plan_path.c_str(), fault_summary_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", tool_.c_str(), e.what());
      std::exit(2);
    }
  }
}

unsigned RunSession::threads() const {
  return static_cast<unsigned>(args_.integer("--threads"));
}

int RunSession::finish(int rc) {
  if (rc != 0) return rc;
  const std::string& metrics_out = args_.str("--metrics-out");
  const std::string& trace_out = args_.str("--trace-out");
  const std::string& recorder_out = args_.str("--recorder-out");
  if (metrics_out.empty() && trace_out.empty() && recorder_out.empty()) return 0;

  bool ok = true;
  const auto check = [&ok](bool written, const std::string& path) {
    if (written) return;
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    ok = false;
  };

  obs::RunManifest manifest;
  manifest.tool = tool_;
  manifest.command = command_;
  manifest.threads = runtime::resolve_threads(threads());
  if (args_.has("--fault-plan")) {
    manifest.notes.emplace_back("fault_plan", args_.str("--fault-plan"));
    manifest.notes.emplace_back("fault_events", fault_summary_);
  }
  const std::uint64_t end_us = obs::FlightRecorder::global().wall_now_us();
  manifest.wall_ms = static_cast<double>(end_us - start_us_) / 1000.0;
  const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
  // Drain the recorder once; the events ride --trace-out and
  // --recorder-out alike.
  std::vector<obs::ResolvedEvent> events;
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  if (rec.enabled()) events = rec.drain();
  if (!metrics_out.empty()) {
    check(obs::write_metrics_file(metrics_out, snap, manifest), metrics_out);
  }
  if (!trace_out.empty()) {
    check(obs::write_trace_file(trace_out, snap, events, manifest), trace_out);
  }
  if (!recorder_out.empty()) {
    check(obs::write_events_file(recorder_out, events, manifest), recorder_out);
  }
  std::fputs(obs::summary_text(snap, manifest).c_str(), stdout);
  return ok ? 0 : 1;
}

}  // namespace satnet::io
