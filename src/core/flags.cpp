#include "core/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace vepro::core
{

namespace
{

/** from_chars over the whole of @p text, or an error naming @p flag
 *  and @p what it expects. Partial consumption ("4abc") is as wrong as
 *  no digits at all: std::stoi and friends would silently accept it. */
template <typename T>
T
parseWhole(const std::string &text, const std::string &flag,
           const char *what)
{
    T value{};
    const char *last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || ptr != last || text.empty()) {
        throw std::invalid_argument(flag + " expects " + what + ", got '" +
                                    text + "'");
    }
    return value;
}

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        out += (out.empty() ? "" : ", ") + item;
    }
    return out;
}

/** ">= 0", "> 0", "in (0, 1)"; "" for an unbounded row. */
std::string
rangeText(const Flag &flag)
{
    char buf[64] = "";
    const bool low = std::isfinite(flag.min), high = std::isfinite(flag.max);
    if (low && high) {
        std::snprintf(buf, sizeof buf, "in %c%g, %g%c", flag.open ? '(' : '[',
                      flag.min, flag.max, flag.open ? ')' : ']');
    } else if (low || high) {
        std::snprintf(buf, sizeof buf, "%c%s %g", low ? '>' : '<',
                      flag.open ? "" : "=", low ? flag.min : flag.max);
    }
    return buf;
}

/** @p text converted and checked by @p flag's kind, range and choices. */
FlagValue
convert(const Flag &flag, const std::string &text)
{
    const std::string name = "--" + flag.name;
    switch (flag.kind) {
    case FlagKind::Switch:
        return true;
    case FlagKind::U64:
        return parseU64Strict(text, name);
    case FlagKind::Int:
    case FlagKind::Double: {
        const bool integer = flag.kind == FlagKind::Int;
        const double x = integer ? parseIntStrict(text, name)
                                 : parseDoubleStrict(text, name);
        if (flag.open ? !(x > flag.min && x < flag.max)
                      : !(x >= flag.min && x <= flag.max)) {
            throw UsageError(name + " must be " + rangeText(flag) +
                             ", got '" + text + "'");
        }
        return integer ? FlagValue(static_cast<int>(x)) : FlagValue(x);
    }
    default:  // A string is one item, a list ','-separated ones.
        FlagList items;
        for (size_t pos = 0; pos <= text.size();) {
            const size_t end = flag.kind == FlagKind::List
                                   ? std::min(text.find(',', pos), text.size())
                                   : text.size();
            const std::string item = text.substr(pos, end - pos);
            pos = end + 1;
            if (item.empty()) {
                throw UsageError(name + " expects no empty value, got '" +
                                 text + "'");
            }
            if (!flag.choices.empty() &&
                std::find(flag.choices.begin(), flag.choices.end(), item) ==
                    flag.choices.end()) {
                throw UsageError(name + ": unknown value '" + item +
                                 "' (known: " + joined(flag.choices) + ")");
            }
            if (std::find(items.begin(), items.end(), item) != items.end()) {
                throw UsageError(name + " repeats '" + item + "' in '" +
                                 text + "'");
            }
            items.push_back(item);
        }
        return flag.kind == FlagKind::List ? FlagValue(items)
                                           : FlagValue(text);
    }
}

} // namespace

int
parseIntStrict(const std::string &text, const std::string &flag)
{
    return parseWhole<int>(text, flag, "an integer");
}

uint64_t
parseU64Strict(const std::string &text, const std::string &flag)
{
    return parseWhole<uint64_t>(text, flag, "a non-negative integer");
}

double
parseDoubleStrict(const std::string &text, const std::string &flag)
{
    const double value = parseWhole<double>(text, flag, "a finite number");
    if (!std::isfinite(value)) {
        throw std::invalid_argument(flag + " expects a finite number, got '" +
                                    text + "'");
    }
    return value;
}

void
parseFlags(const FlagTable &table, const std::vector<std::string> &args)
{
    if (std::count(args.begin(), args.end(), "--help") +
        std::count(args.begin(), args.end(), "-h")) {
        throw HelpRequested{};
    }
    // A name no row has maps to rows.size(), whose slot in given stays
    // empty: a needs or excludes outside a narrowed table is not given.
    const auto rowOf = [&table](const std::string &name) {
        return static_cast<size_t>(
            std::find_if(table.rows.begin(), table.rows.end(),
                         [&name](const Flag &f) { return f.name == name; }) -
            table.rows.begin());
    };

    // Each token to its row; the values wait for table order.
    std::vector<std::optional<std::string>> given(table.rows.size() + 1);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            throw UsageError("unexpected argument '" + arg + "'");
        }
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const size_t row = rowOf(name.substr(2));
        if (row == table.rows.size()) {
            throw UsageError("unknown option " + name);
        }
        if (given[row]) {
            throw UsageError(name + " is given twice");
        }
        const bool valued = table.rows[row].kind != FlagKind::Switch;
        if (!valued && eq != std::string::npos) {
            throw UsageError(name + " takes no value");
        } else if (!valued || eq != std::string::npos) {
            given[row] = valued ? arg.substr(eq + 1) : "";
        } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
            given[row] = args[++i];
        } else {
            throw UsageError(name + " needs a value");
        }
    }

    for (size_t row = 0; row < table.rows.size(); ++row) {
        const Flag &flag = table.rows[row];
        if (!given[row]) {
            continue;
        }
        // A setter's own parse (--rung-mix's pairs) names the flag too.
        try {
            flag.set(convert(flag, *given[row]));
        } catch (const std::invalid_argument &e) {
            throw UsageError(e.what());
        }
        if (!flag.needs.empty() && !given[rowOf(flag.needs)]) {
            throw UsageError("--" + flag.name + " needs --" + flag.needs);
        }
        for (const std::string &other : flag.excludes) {
            if (given[rowOf(other)]) {
                throw UsageError("--" + flag.name +
                                 " cannot be combined with --" + other);
            }
        }
    }
    if (table.check) {
        table.check();
    }
}

std::string
usage(const FlagTable &table)
{
    std::string out =
        "usage: " + table.program + " " + table.synopsis + "\n\n";
    const auto line = [&out](const std::string &left,
                             const std::string &help) {
        const size_t pad = left.size() < 22 ? 24 - left.size() : 2;
        out += "  " + left + std::string(pad, ' ') + help + "\n";
    };
    for (const Flag &flag : table.rows) {
        const std::string range = rangeText(flag);
        line("--" + flag.name +
                 (flag.kind == FlagKind::Switch ? "" : "=" + flag.metavar),
             flag.help + (range.empty() ? "" : " (" + range + ")") +
                 (flag.needs.empty() ? "" : "; needs --" + flag.needs));
        if (!flag.choices.empty()) {
            line("", "one of: " + joined(flag.choices));
        }
    }
    line("--help", "print this text");
    return out;
}

void
parseFlagsOrExit(const FlagTable &table, int argc, char **argv, int code)
{
    try {
        parseFlags(table, {argv + 1, argv + argc});
    } catch (const HelpRequested &) {
        std::fputs(usage(table).c_str(), stdout);
        std::exit(0);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s: %s\n%s", table.program.c_str(), e.what(),
                     usage(table).c_str());
        std::exit(code);
    }
}

} // namespace vepro::core
