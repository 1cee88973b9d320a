// Minimal JSON emission helpers for the observability layer.
//
// Everything obs writes — metrics snapshots, JSONL lines, Chrome trace
// events, profile dumps — is flat-ish JSON built from numbers and short
// strings; a tiny append-only builder avoids a dependency and keeps the
// formatting rules (locale-independent round-trippable doubles, escaped
// strings) in one place.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace culda::obs {

/// `"` / `\` / control characters escaped per RFC 8259. Metric and span
/// names are plain ASCII in practice; this keeps hostile or accidental
/// input from corrupting the output framing.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The first `%.{p}g` rendering, p = 6, 7, ..., 17, that parses back to
/// `v` ("%.17g" is exact for IEEE doubles but ugly; six digits keep the
/// common short values short). JSON has no inf/nan, so non-finite values
/// become null.
///
/// The shortest round-trip form (`std::to_chars` without a precision) has
/// s significant digits, and no rendering with fewer digits parses back to
/// `v`, so the search starts at max(6, s) instead of trying every p from 6.
/// It cannot always stop at s: `%g` rounds to the nearest s-digit decimal,
/// which can fall outside `v`'s rounding interval where the interval is
/// lopsided (at powers of two). `to_chars` with a precision is specified to
/// match printf's `%g` in the C locale, so the bytes are printf's.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  char* const last = buf + sizeof(buf);
  char* const sci_end =
      std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buf; p != sci_end && *p != 'e'; ++p) {
    digits += (*p >= '0' && *p <= '9') ? 1 : 0;
  }
  for (int prec = std::max(6, digits);; ++prec) {
    char* const end =
        std::to_chars(buf, last, v, std::chars_format::general, prec).ptr;
    double back = 0;
    std::from_chars(buf, end, back);
    if (back == v || prec >= 17) return std::string(buf, end);
  }
}

/// Append-only `{...}` builder. Values added in call order; keys are not
/// checked for uniqueness (callers control them).
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double v) {
    return AddRaw(key, JsonNumber(v));
  }
  JsonObject& Add(std::string_view key, uint64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, int64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, int v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, bool v) {
    return AddRaw(key, v ? "true" : "false");
  }
  JsonObject& Add(std::string_view key, std::string_view v) {
    return AddRaw(key, "\"" + JsonEscape(v) + "\"");
  }
  JsonObject& Add(std::string_view key, const char* v) {
    return Add(key, std::string_view(v));
  }
  /// `raw` must already be valid JSON (nested objects, arrays).
  JsonObject& AddRaw(std::string_view key, std::string_view raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += JsonEscape(key);
    body_ += "\":";
    body_ += raw;
    return *this;
  }

  /// Appends every key of `other` at this object's top level.
  JsonObject& Extend(const JsonObject& other) {
    if (other.body_.empty()) return *this;
    if (!body_.empty()) body_ += ",";
    body_ += other.body_;
    return *this;
  }

  bool empty() const { return body_.empty(); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace culda::obs
