/**
 * @file
 * Strict number parsing for command-line and spec-string input.
 */

#ifndef DEJAVUZZ_UTIL_PARSE_HH
#define DEJAVUZZ_UTIL_PARSE_HH

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dejavuzz {

/** Parse a decimal integer into @p out: digits only (strtoull would
 *  also take whitespace and a sign, negating "-5" into a huge value),
 *  and no larger than T holds. */
template <typename T>
bool
parseUint(const char *text, T &out)
{
    if (*text == '\0' || text[std::strspn(text, "0123456789")] != '\0')
        return false;
    errno = 0;
    const unsigned long long value = std::strtoull(text, nullptr, 10);
    if (errno == ERANGE || value > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(value);
    return true;
}

/** Parse a finite double into @p out (strtod also takes nan/inf). */
inline bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace dejavuzz

#endif // DEJAVUZZ_UTIL_PARSE_HH
