// Run session: the one command-line parser and run set-up/tear-down
// shared by satnetctl and the golden suite.
//
// Flags are declared once, in tables of `Flag`: a name, a metavar when
// the flag takes a value, the check that value must pass, a default and
// a help line. `parse_args` accepts `--flag v` and `--flag=v` and is
// strict: an unknown or leftover argument, a flag given twice, a
// missing value, or a value failing its check yields one diagnostic
// naming the flag. Usage text is printed from the same tables, so help
// and parser cannot drift apart.
//
// `RunSession` owns the flags every run accepts (`shared_flags()`):
// threads, the obs exports (metrics, trace, flight recorder, pool
// watchdog), the fault plan, and the epoch-timeline toggle.
// `start` parses strictly — a bad argument prints one diagnostic and
// exits 2 before any work — and applies them;
// `finish(rc)` writes the manifest-stamped exports, and turns a failed
// write into one "error writing PATH" line and exit 1. Everything here
// is observation or ablation only: simulation output is byte-identical
// with or without any of it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace satnet::io {

/// What a flag's value must be: `accepts` decides, `what` says it in the
/// diagnostic ("an integer in 0..1024").
struct Check {
  std::string what;
  std::function<bool(const std::string&)> accepts;
};

/// A decimal integer in [lo, hi].
Check integer_in(std::uint64_t lo, std::uint64_t hi);
/// A finite real in [lo, hi], or (lo, hi] when `lo_open`.
Check real_in(double lo, double hi, bool lo_open = false);
/// Any finite real.
Check finite_real();
/// One of `choices`.
Check one_of(std::vector<std::string> choices);
/// A non-empty path ("-" = stdout where the flag says so).
Check path();

/// One declared flag. A flag with an empty `metavar` is a switch and
/// takes no value.
struct Flag {
  std::string name;      ///< "--threads"
  std::string metavar;   ///< "N"; empty for a switch
  Check check;           ///< ignored for a switch
  std::string fallback;  ///< value when absent; "" = none
  std::string help;      ///< one line for the usage text
};

/// The parsed command line: given values, defaults, positionals. Every
/// value has passed its check, so the typed getters cannot fail.
class Args {
 public:
  /// True when `name` was given on the command line.
  bool has(std::string_view name) const;
  /// The given value, else the declared fallback, else "".
  const std::string& str(std::string_view name) const;
  double real(std::string_view name) const;
  std::uint64_t integer(std::string_view name) const;
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  friend std::string parse_args(int, char* const*, int, const std::vector<Flag>&,
                                const std::vector<std::string>&, Args*);
  std::vector<std::pair<std::string, std::string>> given_;
  std::vector<std::pair<std::string, std::string>> fallbacks_;
  std::vector<std::string> positionals_;
};

/// Parses argv[first, argc) against `flags`, with exactly the named
/// `positionals` (e.g. {"FILE"}) in order. Returns "" on success, else
/// a one-line diagnostic naming the offending argument; *out is then
/// unspecified.
std::string parse_args(int argc, char* const* argv, int first,
                       const std::vector<Flag>& flags,
                       const std::vector<std::string>& positionals, Args* out);

/// "[--scale S] [--out FILE] [--degrade]" for a usage line.
std::string flag_synopsis(const std::vector<Flag>& flags);

/// One indented line per flag: name, metavar, check, default, help.
std::string flag_help(const std::vector<Flag>& flags);

class RunSession {
 public:
  /// Records the command line for the run manifest and starts its wall
  /// clock: construct before a framework strips its own flags from
  /// argv. `tool` names the run in the manifest and prefixes every
  /// diagnostic; empty means argv[0]'s basename.
  RunSession(int argc, char** argv, std::string tool = {});

  /// The flags every run accepts, in usage order.
  static const std::vector<Flag>& shared_flags();

  /// Parses argv[first, argc) strictly against shared_flags() plus
  /// `own`, then applies the shared ones: the timeline toggle, recorder,
  /// watchdog, fault plan. A bad argument or an unloadable fault plan
  /// prints one diagnostic and exits 2.
  void start(int argc, char** argv, int first, const std::vector<Flag>& own = {},
             const std::vector<std::string>& positionals = {});

  const Args& args() const { return args_; }
  /// --threads as given (0 = one worker per hardware thread).
  unsigned threads() const;

  /// Tear-down. When rc is 0: writes the manifest-stamped metrics,
  /// trace and recorder files with a metrics summary. Returns rc, or 1
  /// when rc is 0 and a write failed (one "error writing PATH" line
  /// each).
  int finish(int rc);

 private:
  std::string tool_;
  std::string command_;
  std::uint64_t start_us_;  ///< manifest wall clock, on the recorder's epoch
  Args args_;
  std::string fault_summary_;
};

}  // namespace satnet::io
