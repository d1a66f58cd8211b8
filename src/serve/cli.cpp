#include "serve/cli.hpp"

#include "backend/profile.hpp"

namespace vepro::serve
{

namespace
{

/** One "scale:weight" item of --rung-mix: scale >= 1, weight > 0. */
TrafficConfig::RungShare
parseRungShare(const std::string &item)
{
    const size_t colon = item.find(':');
    const TrafficConfig::RungShare share{
        core::parseIntStrict(item.substr(0, colon), "--rung-mix scale"),
        colon == std::string::npos
            ? 0.0
            : core::parseDoubleStrict(item.substr(colon + 1),
                                      "--rung-mix weight")};
    if (share.scale < 1 || !(share.weight > 0.0)) {
        throw std::invalid_argument("--rung-mix expects scale:weight pairs "
                                    "(scale >= 1, weight > 0), got '" +
                                    item + "'");
    }
    return share;
}

} // namespace

core::FlagTable
serveFlags(ServeCli &out)
{
    using enum core::FlagKind;
    using core::to;
    TrafficConfig &traffic = out.scenario.traffic;
    FarmConfig &farm = out.scenario.farm;
    CostModelConfig &cost = out.scenario.cost;
    const std::vector<std::string> &profiles = backend::profileNames();
    return {.program = "vepro-serve", .rows = {
        {.name = "quick", .help = "the CI-sized reference scenario",
         .set = [&out](auto &) {
             out.quick = true;
             out.scenario = referenceScenario(true);
         }},
        {.name = "fleet", .help = "sweep backend mixes instead",
         .set = to(out.fleet)},
        {.name = "seed", .kind = U64, .metavar = "N",
         .help = "traffic RNG seed", .set = to(traffic.seed)},
        {.name = "users", .kind = Int, .metavar = "N", .min = 0,
         .help = "active uploaders", .set = to(traffic.users)},
        {.name = "uploads-per-hour", .kind = Double, .metavar = "X", .min = 0,
         .help = "mean uploads per user-hour",
         .set = to(traffic.uploadsPerUserPerHour)},
        {.name = "duration", .kind = Double, .metavar = "SEC", .min = 0,
         .open = true, .help = "simulated window",
         .set = to(traffic.durationSec)},
        {.name = "servers", .kind = Int, .metavar = "N", .min = 1,
         .help = "farm servers (--fleet: per mix)", .set = to(farm.servers)},
        {.name = "admission", .kind = Int, .metavar = "N", .min = 0,
         .help = "queued jobs before rejects (0 = off)",
         .set = [&farm](auto &v) { farm.admissionLimit = std::get<int>(v); }},
        {.name = "latency-target", .kind = Double, .metavar = "SEC", .min = 0,
         .open = true, .help = "SLA deadline per job",
         .set = to(farm.latencyTargetSec)},
        {.name = "rung-mix", .kind = List, .metavar = "S:W,..",
         .help = "ABR rung mix as scale:weight pairs (default 1:1)",
         .set = [&traffic](auto &v) {
             traffic.rungMix.clear();
             for (const std::string &item : std::get<core::FlagList>(v)) {
                 traffic.rungMix.push_back(parseRungShare(item));
             }
         }},
        {.name = "backend", .kind = String, .metavar = "NAME",
         .choices = profiles, .excludes = {"fleet"},
         .help = "machine profile the servers run", .set = to(cost.backend)},
        {.name = "ghz", .kind = Double, .metavar = "X", .min = 0, .open = true,
         .help = "override the profile's clock", .set = to(cost.nominalGhz)},
        {.name = "server-cores", .kind = Int, .metavar = "N", .min = 1,
         .help = "override the profile's cores per server",
         .set = to(cost.serverCores)},
        {.name = "backends", .kind = List, .metavar = "A,B,..",
         .choices = profiles, .needs = "fleet",
         .help = "profiles the fleet mixes (default: all)",
         .set = to(out.fleetBackends)},
        {.name = "jobs", .kind = Int, .metavar = "N", .min = 0,
         .help = "cost-resolution workers", .set = to(out.jobs)},
        {.name = "store", .kind = String, .metavar = "DIR",
         .help = "result store directory", .set = to(out.storeDir)},
        {.name = "json", .kind = String, .metavar = "PATH",
         .help = "write the SLA or fleet table as JSON",
         .set = to(out.jsonPath)},
        {.name = "markdown", .kind = String, .metavar = "PATH",
         .needs = "fleet", .help = "write the fleet table as markdown",
         .set = to(out.markdownPath)},
    }};
}

ServeCli
parseServeCli(const std::vector<std::string> &args)
{
    ServeCli cli;
    try {
        core::parseFlags(serveFlags(cli), args);
    } catch (const core::HelpRequested &) {
        cli.showHelp = true;
    } catch (const core::UsageError &err) {
        cli.error = err.what();
    }
    return cli;
}

} // namespace vepro::serve
