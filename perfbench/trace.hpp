// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a library layer in a
// Scope. A span records its name, start, end, parent span and the id
// of the workload pass it belongs to. Spans stay in memory and are
// written out as JSON lines when the run ends. With the recorder off a
// Scope costs one branch, so untraced passes run the same code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock: the benchmark's only time source.
double now_ms();

struct Span {
  std::string name;
  std::uint64_t pass = 0;  ///< workload pass the span belongs to
  int id = 0;
  int parent = -1;  ///< -1: top-level span of its pass
  double start_ms = 0;
  double end_ms = 0;

  double ms() const { return end_ms - start_ms; }
};

class Trace {
 public:
  /// Starts recording the spans of pass `pass`.
  void begin_pass(std::uint64_t pass);
  /// Stops recording; spans already recorded are kept.
  void end_pass();
  bool on() const { return on_; }

  int open(std::string name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the time its direct children cover.
  /// Children of one span run one after another on the calling thread,
  /// so the covered time is the sum of their durations.
  std::vector<double> self_ms() const;

  /// One JSON object per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint64_t pass_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// The recorder every workload writes into.
Trace& trace();

/// Records one span around its lifetime when the recorder is on.
class Scope {
 public:
  explicit Scope(const char* name) : id_(trace().on() ? trace().open(name) : -1) {}
  explicit Scope(const std::string& name) : id_(trace().on() ? trace().open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) trace().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
