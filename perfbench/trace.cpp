#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

Trace& trace() {
  static Trace t;
  return t;
}

void Trace::begin_pass(std::uint64_t pass) {
  on_ = true;
  pass_ = pass;
  open_.clear();
}

void Trace::end_pass() {
  on_ = false;
  open_.clear();
}

int Trace::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.pass = pass_;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Trace::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Trace::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  return self;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"pass\": %llu, \"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ms\": %.4f, \"end_ms\": %.4f, \"self_ms\": %.4f}\n",
                 static_cast<unsigned long long>(s.pass), s.id, s.parent, s.name.c_str(),
                 s.start_ms, s.end_ms, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
