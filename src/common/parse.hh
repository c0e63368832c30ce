/**
 * @file
 * Strict number parsing for the spec grammars (pds, serve, fault, storm
 * and fuzz-case strings). These strings arrive from the command line as
 * reproducers, so a value must mean exactly what it says: strtoull-style
 * leniency (skipped signs, ignored trailing text, silent narrowing) would
 * replay a different case than the one printed.
 */

#ifndef LWSP_COMMON_PARSE_HH
#define LWSP_COMMON_PARSE_HH

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace lwsp {

/**
 * Parse @p text as a plain unsigned decimal into @p out. Digits only: an
 * empty value, a sign, whitespace, trailing characters or a value that
 * does not fit in T is rejected. Returns false, leaving @p out
 * untouched, on rejection.
 */
template <typename T>
bool
parseUnsigned(std::string_view text, T &out)
{
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                  "parseUnsigned targets unsigned integer fields");
    const char *end = text.data() + text.size();
    T v{};
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

} // namespace lwsp

#endif // LWSP_COMMON_PARSE_HH
