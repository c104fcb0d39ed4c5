// Text building for the report strings (paper sections, the
// identify_snos walkthrough, the Markdown study report): printf-style
// formatting that appends to a std::string instead of writing to a
// stream, so a report is a value the golden suite can compare.
#pragma once

#include <string>

namespace satnet::io {

/// Appends printf-formatted text to `out`, however long it formats.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...);

/// The boxed "Figure — caption" banner that opens a paper section.
void append_header(std::string& out, const char* figure, const char* caption);

/// One indented note line ("  text\n").
void append_note(std::string& out, const char* text);

}  // namespace satnet::io
