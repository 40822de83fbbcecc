/**
 * @file
 * JSON string escaping for the hand-written report emitters.
 */

#ifndef AVSCOPE_UTIL_JSON_HH
#define AVSCOPE_UTIL_JSON_HH

#include <string>
#include <string_view>

namespace av::util {

/**
 * Escape @p text for the inside of a JSON string literal (RFC 8259
 * §7): quote and backslash get a backslash, control bytes below
 * 0x20 their short escape or \\u00XX. Other bytes, UTF-8 included,
 * pass through.
 */
std::string jsonEscape(std::string_view text);

} // namespace av::util

#endif // AVSCOPE_UTIL_JSON_HH
