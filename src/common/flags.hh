/**
 * @file
 * The one command-line grammar of the bench binaries, fuzz_crash,
 * lwsp_cli, lwsp_verify and lwsp_trace: the argv counterpart of the spec
 * grammar in common/parse.hh. A tool declares each flag once, as a
 * `cli::Flag`, and both parse() and usage() read that list.
 *
 * A name starting with '-' is a flag: a switch without a metavar, else
 * it takes the next argument as its value. Any other name is a
 * positional spelled as usage prints it, `<app>` (required) or
 * `[scheme]` (optional), filled from the non-flag arguments in order.
 * Values are read strictly (parseUnsigned, parseFraction, a name table).
 * `--help` or `-h` anywhere prints the usage to stdout and exits 0.
 */

#ifndef LWSP_COMMON_FLAGS_HH
#define LWSP_COMMON_FLAGS_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hh"

namespace lwsp {
namespace cli {

struct Flag
{
    const char *name;      ///< "--jobs", or a positional: "<app>"
    std::string metavar;   ///< the value's placeholder; empty: a switch
    std::string help;      ///< one line
    /** Store a value ("" for a switch); false if bad, @p why saying so. */
    std::function<bool(std::string_view value, std::string &why)> set;
    bool repeats = false;  ///< may be given more than once
};

/** A subcommand, or (null name) a tool without subcommands. */
struct Command
{
    const char *name;
    std::string help;
    std::vector<Flag> flags;
    std::function<int()> run{};  ///< the tool's work, once parsed
};

/** A switch storing @p value. */
inline Flag
toggle(const char *name, std::string help, bool &out, bool value = true)
{
    return {name, "", std::move(help),
            [&out, value](std::string_view, std::string &) {
                out = value;
                return true;
            }};
}

/** A non-empty string. */
inline Flag
text(const char *name, std::string metavar, std::string help,
     std::string &out)
{
    return {name, std::move(metavar), std::move(help),
            [&out](std::string_view v, std::string &why) {
                why = "want a non-empty value";
                if (!v.empty())
                    out = v;
                return !v.empty();
            }};
}

/** A positional decimal in [0, 1] (parseFraction). */
inline Flag
fraction(const char *name, std::string help, double &out)
{
    return {name, "", std::move(help),
            [&out](std::string_view v, std::string &why) {
                why = "want a decimal in [0, 1]";
                return parseFraction(v, out);
            }};
}

/** An unsigned decimal (parseUnsigned), at least @p min. */
template <typename T>
Flag
number(const char *name, std::string metavar, std::string help, T &out,
       T min = 0)
{
    return {name, std::move(metavar), std::move(help),
            [&out, min](std::string_view v, std::string &why) {
                T x{};
                const bool ok = parseUnsigned(v, x);
                why = ok ? "want >= " + std::to_string(min)
                         : "want an unsigned integer";
                if (ok && x >= min)
                    out = x;
                return ok && x >= min;
            }};
}

/** @p names joined by '|'. */
template <typename Names>
std::string
joinNames(const Names &names)
{
    std::string out;
    for (std::string_view n : names)
        out += (out.empty() ? "" : "|") + std::string(n);
    return out;
}

/** One of an enum's name table @p names (static storage); stores its
 *  index as an E. */
template <typename E, std::size_t N>
Flag
choice(const char *name, std::string help, const char *const (&names)[N],
       E &out)
{
    std::string metavar = joinNames(names);
    return {name, metavar, std::move(help),
            [&out, &names, metavar](std::string_view v, std::string &why) {
                why = "want " + metavar;
                return spec::enumFromName(names, v, out);
            }};
}

/** --jobs N, for every tool that fans work out over threads. */
inline Flag
jobs(unsigned &out)
{
    return number("--jobs", "N", "worker threads (0 = all, the default)",
                  out);
}

/** --trace-out FILE, for every tool that writes an event trace. */
inline Flag
traceOut(std::string &out)
{
    return text("--trace-out", "FILE",
                "write the binary event trace (see lwsp_trace)", out);
}

/**
 * Parse @p args (those after the program and command words) into
 * @p cmd's flags. False on the first error: a bad or missing value, an
 * unknown flag, a repeat of a flag that does not repeat, a stray or
 * missing positional; @p err names the flag.
 */
inline bool
parse(std::span<const std::string_view> args, const Command &cmd,
      std::string &err)
{
    const std::vector<Flag> &flags = cmd.flags;
    std::vector<bool> seen(flags.size());
    std::size_t next = 0;  // the positionals before `next` are filled
    for (std::size_t a = 0; a < args.size(); ++a) {
        std::string_view arg = args[a], value;
        const bool flag = arg.size() > 1 && arg[0] == '-';
        auto it = std::find_if(
            flags.begin() + static_cast<std::ptrdiff_t>(flag ? 0 : next),
            flags.end(), [&](const Flag &f) {
                return flag ? f.name == arg : f.name[0] != '-';
            });
        if (it == flags.end()) {
            err = (flag ? "unknown flag '" : "unexpected argument '") +
                  std::string(arg) + "'";
            return false;
        }
        const auto i = static_cast<std::size_t>(it - flags.begin());
        if (!flag) {
            value = arg;
            next = i + 1;
        } else if (seen[i] && !it->repeats) {
            err = std::string(arg) + " given twice";
            return false;
        } else if (!it->metavar.empty()) {
            if (++a == args.size()) {
                err = std::string(arg) + " needs a value " + it->metavar;
                return false;
            }
            value = args[a];
        }
        seen[i] = true;
        std::string why;
        if (!it->set(value, why)) {
            err = std::string(it->name) + ": bad value '" +
                  std::string(value) + "' (" + why + ")";
            return false;
        }
    }
    for (std::size_t i = next; i < flags.size(); ++i) {
        if (flags[i].name[0] == '<') {
            err = std::string("missing ") + flags[i].name;
            return false;
        }
    }
    return true;
}

/** A synopsis per command, then one help line per distinct entry. */
inline std::string
usage(std::string_view prog, std::span<const Command> cmds)
{
    std::string out;
    std::vector<std::pair<std::string, std::string>> help;
    auto addHelp = [&](const std::string &left, const std::string &line) {
        if (std::find(help.begin(), help.end(), std::pair(left, line)) ==
            help.end())
            help.emplace_back(left, line);
    };
    for (const Command &cmd : cmds) {
        std::string line = (out.empty() ? "usage: " : "       ") +
                           std::string(prog) +
                           (cmd.name ? " " + std::string(cmd.name) : "");
        const std::size_t indent = line.size();
        if (cmd.name && !cmd.help.empty())
            addHelp(cmd.name, cmd.help);
        for (const Flag &f : cmd.flags) {
            const bool flag = f.name[0] == '-';
            std::string word = f.name;
            if (flag && !f.metavar.empty())
                word += " " + f.metavar;
            addHelp(word, f.help);
            if (flag)
                word = "[" + word + "]" + (f.repeats ? "..." : "");
            if (line.size() + 1 + word.size() > 78 && line.size() > indent) {
                out += line + "\n";
                line = std::string(indent, ' ');
            }
            line += " " + word;
        }
        out += line + "\n";
    }
    addHelp("-h, --help", "print this usage and exit");
    // Help lines start in one column unless the left side overruns it.
    out += "\n";
    for (const auto &[left, line] : help) {
        out += "  " + left +
               std::string(left.size() < 20 ? 22 - left.size() : 2, ' ') +
               line + "\n";
    }
    return out;
}

/**
 * Choose the command the first argument names (or the one unnamed
 * command) and parse the rest into it; on an error print `<prog>:
 * <error>` and the usage to stderr and exit 2. Returns the command.
 * A `--help` or `-h` argument prints the usage to stdout and exits 0.
 */
inline const Command &
parseOrExit(int argc, char **argv, std::span<const Command> cmds)
{
    std::vector<std::string_view> args(argv + 1, argv + argc);
    std::string_view prog = argv[0];
    prog.remove_prefix(prog.find_last_of('/') + 1);  // npos + 1 == 0
    if (std::find_if(args.begin(), args.end(), [](std::string_view a) {
            return a == "--help" || a == "-h";
        }) != args.end()) {
        std::fputs(usage(prog, cmds).c_str(), stdout);
        std::exit(0);
    }
    const Command *cmd = nullptr;
    std::string err = "missing command";
    if (cmds.size() == 1 && !cmds[0].name) {
        cmd = &cmds[0];
    } else if (!args.empty()) {
        for (const Command &c : cmds) {
            if (args[0] == c.name)
                cmd = &c;
        }
        err = "unknown command '" + std::string(args[0]) + "'";
        args.erase(args.begin());
    }
    if (cmd && parse(args, *cmd, err))
        return *cmd;
    std::fprintf(stderr, "%.*s: %s\n%s", static_cast<int>(prog.size()),
                 prog.data(), err.c_str(), usage(prog, cmds).c_str());
    std::exit(2);
}

/** parseOrExit for a tool without subcommands; returns its name, the
 *  last component of argv[0]. */
inline std::string
parseOrExit(int argc, char **argv, std::vector<Flag> flags)
{
    const Command tool{nullptr, "", std::move(flags)};
    parseOrExit(argc, argv, std::span(&tool, 1));
    std::string_view prog = argv[0];
    return std::string(prog.substr(prog.find_last_of('/') + 1));
}

} // namespace cli
} // namespace lwsp

#endif // LWSP_COMMON_FLAGS_HH
