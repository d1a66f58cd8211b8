#ifndef VEPRO_SERVE_CLI_HPP
#define VEPRO_SERVE_CLI_HPP

/**
 * @file
 * vepro-serve argument parsing, split from main() so tests can drive
 * it. Numeric flags parse whole-token strict (core::parseIntStrict,
 * parseU64Strict, parseDoubleStrict: "--users 4abc", "--seed -1" and
 * "--latency-target nan" are errors, not a silent 4, 2^64 - 1 or NaN)
 * and are range-checked; --backend names are validated against the
 * profile registry. All of it happens before any cost resolution.
 */

#include <string>
#include <vector>

#include "serve/scenario.hpp"

namespace vepro::serve
{

/** Everything main() needs from argv. */
struct ServeCli {
    bool showHelp = false;
    bool quick = false;
    bool fleet = false;           ///< Run the fleet sweep, not the SLA sweep.
    int jobs = 1;
    std::string storeDir = ".vepro-lab";
    std::string jsonPath;         ///< SLA (or fleet) table as JSON.
    std::string markdownPath;     ///< Fleet table + verdict as markdown.
    /** --backends list for --fleet; empty = full registry. */
    std::vector<std::string> fleetBackends;
    ServeScenario scenario;

    /** Non-empty = parse failed; main prints it + usage and exits 2. */
    std::string error;
};

/** The --help text. */
std::string serveUsage();

/** Parse @p args (argv[1..]); never throws — failures land in
 *  ServeCli::error. */
ServeCli parseServeCli(const std::vector<std::string> &args);

} // namespace vepro::serve

#endif // VEPRO_SERVE_CLI_HPP
