/**
 * @file
 * The one spec grammar shared by the pds, serve, fault, storm and
 * fuzz-case strings. These strings arrive from the command line as
 * reproducers, so a string must mean exactly what it says: leniency
 * (skipped tokens, repeated keys, strtoull-style signs, trailing text or
 * silent narrowing) would replay a different case than the one printed.
 *
 * A spec is a list of tokens joined by one separator character. The
 * first token may be a bare word (the spec's leading word, e.g. the pds
 * kind); every other token is `key=value`. Each spec type declares its
 * fields once, as an array of `spec::Field`, and both `spec::parse` and
 * `spec::print` read that array.
 */

#ifndef LWSP_COMMON_PARSE_HH
#define LWSP_COMMON_PARSE_HH

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace lwsp {

/**
 * Parse @p text as a plain unsigned number in @p base (decimal unless
 * given) into @p out. Digits only: an empty value, a sign, a prefix,
 * whitespace, trailing characters or a value that does not fit in T is
 * rejected. Returns false, leaving @p out untouched, on rejection.
 */
template <typename T>
bool
parseUnsigned(std::string_view text, T &out, int base = 10)
{
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                  "parseUnsigned targets unsigned integer fields");
    const char *end = text.data() + text.size();
    T v{};
    auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/**
 * Parse @p text as a plain decimal in [0, 1] into @p out: digits with an
 * optional fraction or exponent, nothing else (no sign, whitespace,
 * trailing characters, inf or nan). Returns false, leaving @p out
 * untouched, on rejection.
 */
inline bool
parseFraction(std::string_view text, double &out)
{
    const char *end = text.data() + text.size();
    double v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || text[0] == '-' ||
        !(v >= 0 && v <= 1))
        return false;
    out = v;
    return true;
}

namespace spec {

/**
 * Split @p text at @p sep; empty text is an empty list. An empty token,
 * a trailing separator included, is an error naming @p what (the spec
 * kind, e.g. "pds").
 */
inline bool
split(std::string_view text, char sep, const char *what,
      std::vector<std::string_view> &out, std::string &err)
{
    out.clear();
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t end = std::min(text.find(sep, pos), text.size());
        std::string_view tok = text.substr(pos, end - pos);
        if (tok.empty() || end + 1 == text.size()) {
            err = std::string("empty ") + what + " token in '" +
                  std::string(text) + "'";
            return false;
        }
        out.push_back(tok);
        pos = end + 1;
    }
    return true;
}

/** Index of @p word in @p names, cast to E; false if absent. */
template <typename E, std::size_t N>
bool
enumFromName(const char *const (&names)[N], std::string_view word, E &out)
{
    for (std::size_t i = 0; i < N; ++i) {
        if (word == names[i]) {
            out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** Name of @p e in @p names (indexed by the enum's value). */
template <typename E, std::size_t N>
constexpr const char *
enumName(const char *const (&names)[N], E e)
{
    std::size_t i = static_cast<std::size_t>(e);
    return i < N ? names[i] : "?";
}

/** When print() emits a field. */
enum class Print : std::uint8_t
{
    Always,
    UnlessDefault,  ///< only when its value differs from a default spec's
    When,           ///< only when the field's predicate holds
};

/**
 * One field of spec type S. A null key marks the spec's leading word:
 * the bare first token. A When field is also rejected on parse when its
 * predicate is false for the parsed spec: the key would have no effect.
 */
template <typename S>
struct Field
{
    const char *key;
    /** Store @p val; false on a bad value (@p why may explain). */
    bool (*read)(std::string_view val, S &s, std::string &why);
    std::string (*show)(const S &s);
    Print print = Print::Always;
    bool (*when)(const S &s) = nullptr;

    bool
    printed(const S &s) const
    {
        static const S def{};
        return print == Print::Always ||
               (print == Print::When ? when(s) : show(s) != show(def));
    }
};

template <typename M>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*>
{
    using Spec = S;
    using Value = T;
};
template <auto M>
using SpecOf = typename MemberOf<decltype(M)>::Spec;

/** An unsigned decimal member; values below @p Min are rejected. */
template <auto M, std::uint64_t Min = 0>
constexpr Field<SpecOf<M>>
number(const char *key, Print print = Print::Always,
       bool (*when)(const SpecOf<M> &) = nullptr)
{
    using S = SpecOf<M>;
    return {key,
            [](std::string_view v, S &s, std::string &why) {
                if (!parseUnsigned(v, s.*M))
                    return false;
                if (Min == 0 || s.*M >= Min)
                    return true;
                why = "want >= " + std::to_string(Min);
                return false;
            },
            [](const S &s) { return std::to_string(s.*M); }, print, when};
}

/** An enum member spelled as its entry in @p Names. */
template <auto M, const auto &Names>
constexpr Field<SpecOf<M>>
word(const char *key, Print print = Print::Always)
{
    using S = SpecOf<M>;
    return {key,
            [](std::string_view v, S &s, std::string &why) {
                if (enumFromName(Names, v, s.*M))
                    return true;
                why = "want ";
                for (std::size_t i = 0; i < std::size(Names); ++i)
                    why += (i ? "|" : "") + std::string(Names[i]);
                return false;
            },
            [](const S &s) { return std::string(enumName(Names, s.*M)); },
            print};
}

inline constexpr const char *flagNames[] = {"0", "1"};

/** A bool member spelled `0` or `1`, printed only when set. */
template <auto M>
constexpr Field<SpecOf<M>>
flag(const char *key)
{
    return word<M, flagNames>(key, Print::UnlessDefault);
}

/**
 * A member with its own value syntax: `T::parse(text, out[, err])` and
 * `toString()`.
 */
template <auto M>
constexpr Field<SpecOf<M>>
nested(const char *key, Print print = Print::UnlessDefault,
       bool (*when)(const SpecOf<M> &) = nullptr)
{
    using S = SpecOf<M>;
    using T = typename MemberOf<decltype(M)>::Value;
    return {key,
            [](std::string_view v, S &s, std::string &why) {
                if constexpr (requires(T &t) { T::parse(std::string(), t); })
                    return T::parse(std::string(v), s.*M);
                else
                    return T::parse(std::string(v), s.*M, why);
            },
            [](const S &s) { return (s.*M).toString(); }, print, when};
}

/**
 * Parse @p text into @p out through @p fields, then run the spec's
 * @p validate step, if any (range checks; it sets @p err itself). @p what
 * names the spec kind in errors. Rejects what split() rejects, a missing
 * leading word, a token without `=`, an unknown or repeated key, a bad
 * value, and a When field whose predicate is false. @p out is untouched
 * on failure.
 */
template <typename S, std::size_t N>
bool
parse(std::string_view text, char sep, const char *what,
      const Field<S> (&fields)[N],
      std::type_identity_t<bool (*)(const S &, std::string &)> validate,
      S &out, std::string &err)
{
    auto fail = [&](std::string_view tok, const std::string &problem) {
        err = std::string(what) + " token '" + std::string(tok) + "' " +
              problem;
        return false;
    };
    std::vector<std::string_view> toks;
    if (!split(text, sep, what, toks, err))
        return false;
    const std::size_t first = fields[0].key ? 0 : 1;  // leading word?
    if (toks.size() < first) {
        err = std::string("empty ") + what + " spec";
        return false;
    }
    S s{};
    std::string_view seen[N];  // the token that set each field
    for (std::size_t t = 0; t < toks.size(); ++t) {
        std::string_view tok = toks[t], val = tok;
        std::size_t i = 0;
        if (t >= first) {
            std::size_t eq = tok.find('=');
            if (eq == std::string_view::npos || eq == 0)
                return fail(tok, "is not key=value");
            val = tok.substr(eq + 1);
            for (i = first; i < N && tok.substr(0, eq) != fields[i].key;)
                ++i;
            if (i == N)
                return fail(tok, "has an unknown key");
            if (!seen[i].empty())
                return fail(tok, "repeats a key");
        }
        seen[i] = tok;
        std::string why;
        if (!fields[i].read(val, s, why))
            return fail(tok, "has a bad value" +
                                 (why.empty() ? "" : " (" + why + ")"));
    }
    for (std::size_t i = 0; i < N; ++i) {
        if (!seen[i].empty() && fields[i].print == Print::When &&
            !fields[i].when(s))
            return fail(seen[i], "has no effect in this spec");
    }
    if (validate && !validate(s, err))
        return false;
    out = s;
    return true;
}

/** Print @p s through @p fields, the inverse of parse(). */
template <typename S, std::size_t N>
std::string
print(const S &s, char sep, const Field<S> (&fields)[N])
{
    std::string out;
    for (const Field<S> &f : fields) {
        if (!f.printed(s))
            continue;
        if (!out.empty())
            out += sep;
        out += f.key ? std::string(f.key) + "=" + f.show(s) : f.show(s);
    }
    return out;
}

} // namespace spec
} // namespace lwsp

#endif // LWSP_COMMON_PARSE_HH
