/**
 * @file
 * Minimal JSON string/number formatting shared by the metrics and trace
 * exporters and the serve responses: the one JSON number writer.
 */

#ifndef MAPP_OBS_JSON_UTIL_H
#define MAPP_OBS_JSON_UTIL_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace mapp::obs {

/** Deepest value nesting the JSON readers accept (parseJson and the
 *  serve request reader); our own documents use fewer than 10. */
inline constexpr int kMaxJsonDepth = 128;

/** Append @p text as a quoted, escaped JSON string. */
inline void
appendJsonString(std::string& out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * Append @p v as a JSON number. JSON has no NaN/Inf literal; emitting 0
 * instead would fabricate a data point in dashboards, so non-finite
 * values become `null` and downstream viewers show a gap.
 */
inline void
appendJsonNumber(std::string& out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // to_chars with chars_format::general and precision 17 prints
    // exactly what printf's "%.17g" does, without the locale and
    // format-string overhead.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 17)
                        .ptr);
}

}  // namespace mapp::obs

#endif  // MAPP_OBS_JSON_UTIL_H
