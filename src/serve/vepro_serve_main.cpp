/**
 * @file
 * vepro-serve: the encode-farm simulator front-end.
 *
 * Resolves model-derived encode costs cache-first through the lab
 * ResultStore (so a second run against the same --store is warm and
 * byte-identical), replays seeded upload traffic through the farm
 * under every scheduling policy, prints the per-policy SLA table, and
 * optionally writes it as a JSON artifact for diffing in CI.
 *
 * With --fleet it instead sweeps machine-profile mixes (backend
 * registry, src/backend) over the same traffic and reports
 * $/1k-encodes, J/encode, and deadline-miss rate per mix — the
 * cheapest-backend-at-SLA question.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "serve/cli.hpp"
#include "serve/fleet.hpp"
#include "serve/scenario.hpp"

namespace
{

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::cerr << "vepro-serve: cannot write " << path << "\n";
        return false;
    }
    out << bytes;
    std::cout << "wrote " << path << "\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vepro;

    serve::ServeCli cli;
    core::parseFlagsOrExit(serve::serveFlags(cli), argc, argv);
    const serve::ServeScenario &scenario = cli.scenario;

    lab::OrchestratorOptions opts;
    opts.jobs = cli.jobs;
    opts.storeDir = cli.storeDir;
    opts.verbose = false;
    lab::Orchestrator orch(opts);

    std::cout << "vepro-serve: " << (cli.quick ? "quick " : "")
              << (cli.fleet ? "fleet sweep" : "scenario") << " — "
              << scenario.traffic.users << " users, "
              << scenario.farm.servers
              << (cli.fleet ? " servers/mix" : " servers")
              << ", latency target " << scenario.farm.latencyTargetSec
              << " s\n";

    try {
        if (cli.fleet) {
            serve::FleetConfig config;
            config.backends = cli.fleetBackends;
            const serve::FleetRun run =
                serve::runFleetScenario(scenario, orch, cli.jobs, config);
            std::cout << "traffic: " << run.arrivals.size()
                      << " uploads over " << scenario.traffic.durationSec
                      << " s\n";
            run.sweep.table.print(
                "Fleet economics per backend mix and preset regime");
            std::cout << run.sweep.verdict << "\n";
            std::cout << "orchestrator: " << orch.summaryLine() << "\n"
                      << "orchestrator: " << orch.traceLine() << "\n";
            if (!cli.jsonPath.empty() &&
                !writeFile(cli.jsonPath, run.sweep.table.toJson())) {
                return 1;
            }
            if (!cli.markdownPath.empty()) {
                const std::string md =
                    "# Fleet economics (vepro-serve --fleet)\n\n" +
                    run.sweep.table.toMarkdown() + "\n" +
                    run.sweep.verdict + "\n";
                if (!writeFile(cli.markdownPath, md)) {
                    return 1;
                }
            }
            return 0;
        }

        const serve::ScenarioRun run =
            serve::runScenario(scenario, orch, cli.jobs);
        std::cout << "traffic: " << run.arrivals.size() << " uploads over "
                  << scenario.traffic.durationSec << " s\n";
        run.table.print("SLA outcomes per scheduling policy");
        std::cout << "orchestrator: " << orch.summaryLine() << "\n"
                  << "orchestrator: " << orch.traceLine() << "\n";
        if (!cli.jsonPath.empty() &&
            !writeFile(cli.jsonPath, run.table.toJson())) {
            return 1;
        }
    } catch (const std::exception &err) {
        std::cerr << "vepro-serve: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
