#include "io/text.hpp"

#include <cstdarg>
#include <cstdio>

namespace satnet::io {

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    // vsnprintf writes the terminating NUL too; format into n + 1 bytes
    // and drop it.
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

void append_header(std::string& out, const char* figure, const char* caption) {
  out += "\n================================================================\n";
  appendf(out, "%s — %s\n", figure, caption);
  out += "================================================================\n";
}

void append_note(std::string& out, const char* text) { appendf(out, "  %s\n", text); }

}  // namespace satnet::io
