#ifndef VEPRO_CORE_FLAGS_HPP
#define VEPRO_CORE_FLAGS_HPP

/** @file The one command-line grammar of the vepro tools: a table of
 *  rows per tool, read by parseFlags(). DESIGN.md §18 has the rules. */

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace vepro::core
{

/** A malformed command line. The message names the flag. */
struct UsageError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

/** What parseFlags throws on `--help` or `-h`. */
struct HelpRequested {};

/**
 * Strict decimal parse of an entire string: the value must consume all
 * of @p text and fit in an int. @throws std::invalid_argument otherwise
 * (with @p flag naming the offender).
 */
int parseIntStrict(const std::string &text, const std::string &flag);

/** The same whole-token rule for a uint64_t (no sign: "-1" is an error,
 *  not 2^64 - 1) and for a double, which must also be finite. */
uint64_t parseU64Strict(const std::string &text, const std::string &flag);
double parseDoubleStrict(const std::string &text, const std::string &flag);

enum class FlagKind { Switch, Int, U64, Double, String, List };

/** A value the parser has checked, as its row's kind: true, int,
 *  uint64_t, double, string or a list of non-empty items. */
using FlagList = std::vector<std::string>;
using FlagValue =
    std::variant<bool, int, uint64_t, double, std::string, FlagList>;
using FlagSetter = std::function<void(const FlagValue &)>;

/** The setter that stores a row's value in @p field. */
template <typename T>
FlagSetter
to(T &field)
{
    return [&field](const FlagValue &v) { field = std::get<T>(v); };
}

/** One row of a tool's flag table. */
struct Flag {
    std::string name{};  ///< Without the leading "--".
    FlagKind kind = FlagKind::Switch;
    std::string metavar{};  ///< The value's name in the usage text.
    /** Int, Double: the accepted range; open = the bounds are out. */
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    bool open = false;
    /** String, List: the registry each value or item must come from. */
    std::vector<std::string> choices{};
    std::string needs{};                  ///< A flag that must come too.
    std::vector<std::string> excludes{};  ///< Flags that may not.
    std::string help{};
    FlagSetter set{};
};

/** A tool's flags, in the order they apply. */
struct FlagTable {
    std::string program{};               ///< Prefixes every message.
    std::string synopsis = "[options]";  ///< The usage line's tail.
    std::vector<Flag> rows{};
    std::function<void()> check{};  ///< A rule across rows, run last.
};

/** Read @p args (argv[1..]): each token to its row, then in table order
 *  each given row's value checked and set and its needs and excludes
 *  checked, then table.check. @throws UsageError, HelpRequested */
void parseFlags(const FlagTable &table, const std::vector<std::string> &args);

/** The usage text, generated from the rows. */
std::string usage(const FlagTable &table);

/** main()'s end: parseFlags over argv. --help prints the usage on stdout
 *  and exits 0; a UsageError prints "<program>: <message>" and the usage
 *  on stderr and exits @p code. */
void parseFlagsOrExit(const FlagTable &table, int argc, char **argv,
                      int code = 2);

} // namespace vepro::core

#endif // VEPRO_CORE_FLAGS_HPP
