#ifndef VEPRO_SERVE_CLI_HPP
#define VEPRO_SERVE_CLI_HPP

/** @file vepro-serve's flag table (core/flags.hpp), out of main() so
 *  tests can drive it. */

#include <string>
#include <vector>

#include "core/flags.hpp"
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
    ServeScenario scenario = referenceScenario(false);

    /** Non-empty = parse failed (parseServeCli's usage error). */
    std::string error;
};

/** vepro-serve's flag table over @p out. --quick applies first, so the
 *  flags that reshape its scenario override it in any order. */
core::FlagTable serveFlags(ServeCli &out);

/** Parse @p args (argv[1..]); never throws — a usage error lands in
 *  ServeCli::error and --help in ServeCli::showHelp. */
ServeCli parseServeCli(const std::vector<std::string> &args);

} // namespace vepro::serve

#endif // VEPRO_SERVE_CLI_HPP
