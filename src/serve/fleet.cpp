#include "serve/fleet.hpp"

#include <map>
#include <stdexcept>

#include "backend/profile.hpp"
#include "serve/costmodel.hpp"

namespace vepro::serve
{

namespace
{

/** The mixes under test: one homogeneous mix per backend, plus a
 *  round-robin blend when there is anything to blend. */
std::vector<FleetMix>
buildMixes(const std::vector<std::string> &backends, int servers_per_mix)
{
    std::vector<FleetMix> mixes;
    for (const std::string &name : backends) {
        FleetMix mix;
        mix.name = name;
        mix.groups.push_back({name, servers_per_mix});
        mixes.push_back(std::move(mix));
    }
    if (backends.size() >= 2) {
        // Deal the servers round-robin so the blend stays comparable:
        // same total server count as every homogeneous mix.
        std::map<std::string, int> counts;  // ordered: deterministic.
        for (int i = 0; i < servers_per_mix; ++i) {
            ++counts[backends[static_cast<size_t>(i) % backends.size()]];
        }
        FleetMix blend;
        blend.name = "blend";
        for (const std::string &name : backends) {
            blend.groups.push_back({name, counts[name]});
        }
        mixes.push_back(std::move(blend));
    }
    return mixes;
}

/** Provisioned dollars for @p groups held for @p horizon_sec. */
double
provisionedDollars(const std::vector<ServerGroup> &groups,
                   double horizon_sec)
{
    double dollars = 0.0;
    for (const ServerGroup &g : groups) {
        const backend::MachineProfile &prof =
            backend::resolveProfile(g.backend);
        dollars += static_cast<double>(g.servers) * prof.pricePerHour *
                   (horizon_sec / 3600.0);
    }
    return dollars;
}

/** Cheapest-at-SLA mix name for one regime; "(none)" if every mix
 *  busts the budget. Ties break toward the earlier row. */
std::string
cheapest(const std::vector<FleetRow> &rows, const std::string &regime)
{
    std::string best = "(none)";
    double best_cost = 0.0;
    for (const FleetRow &r : rows) {
        if (r.regime != regime || !r.meetsSla) {
            continue;
        }
        if (best == "(none)" || r.dollarsPer1k < best_cost) {
            best = r.mix;
            best_cost = r.dollarsPer1k;
        }
    }
    return best;
}

} // namespace

FleetSweepResult
fleetSweep(const std::vector<UploadJob> &arrivals, const FarmConfig &farm,
           const FleetCostOracle &cost, const FleetConfig &config)
{
    std::vector<std::string> backends = config.backends;
    if (backends.empty()) {
        backends = backend::profileNames();
    }
    if (config.serversPerMix < 1) {
        throw std::invalid_argument("serve: fleet needs >= 1 server/mix");
    }

    FleetSweepResult out;
    out.mixes = buildMixes(backends, config.serversPerMix);

    const std::vector<int> &ladder = cost.presetLadder();
    const struct {
        const char *name;
        int preset;
    } regimes[] = {{"slow-preset", ladder.front()},
                   {"fast-preset", ladder.back()}};

    for (const FleetMix &mix : out.mixes) {
        for (const auto &regime : regimes) {
            const StaticPolicy policy(regime.preset);
            const FarmResult r =
                simulateFarm(arrivals, farm, policy, cost, mix.groups);

            FleetRow row;
            row.mix = mix.name;
            row.regime = regime.name;
            row.preset = regime.preset;
            row.completed = r.sla.completed;
            row.rejected = r.sla.rejected;
            row.missRate = r.sla.deadlineMissRate;
            if (r.sla.completed > 0) {
                const double dollars =
                    provisionedDollars(mix.groups, r.horizonSec);
                row.dollarsPer1k =
                    dollars /
                    static_cast<double>(r.sla.completed) * 1000.0;
                row.joulesPerEncode =
                    r.energyJoules /
                    static_cast<double>(r.sla.completed);
            }
            row.meetsSla = row.missRate <= config.missBudget;
            out.rows.push_back(std::move(row));
        }
    }

    core::Table table({"mix", "regime", "preset", "completed", "rejected",
                       "miss rate", "$/1k-encodes", "J/encode",
                       "meets SLA"});
    for (const FleetRow &r : out.rows) {
        table.addRow({r.mix, r.regime, std::to_string(r.preset),
                      std::to_string(r.completed),
                      std::to_string(r.rejected), core::fmt(r.missRate, 4),
                      core::fmt(r.dollarsPer1k, 2),
                      core::fmt(r.joulesPerEncode, 1),
                      r.meetsSla ? "yes" : "no"});
    }
    out.table = std::move(table);

    out.cheapestSlow = cheapest(out.rows, "slow-preset");
    out.cheapestFast = cheapest(out.rows, "fast-preset");
    out.winnerChanged = out.cheapestSlow != out.cheapestFast;
    out.verdict = "cheapest at SLA (miss rate <= " +
                  core::fmt(config.missBudget, 4) +
                  "): slow-preset -> " + out.cheapestSlow +
                  ", fast-preset -> " + out.cheapestFast + " — winner " +
                  (out.winnerChanged ? "CHANGES" : "holds") +
                  " across regimes";
    return out;
}

FleetRun
runFleetScenario(const ServeScenario &scenario, lab::Orchestrator &orch,
                 int /*jobs*/, FleetConfig config)
{
    if (config.backends.empty()) {
        config.backends = backend::profileNames();
    }

    CostModel cost(orch, scenario.cost);
    cost.resolveOn(config.backends, rungClipIds(scenario.traffic),
                   scenario.traffic.crfs);

    FleetRun run;
    run.arrivals = generateTraffic(scenario.traffic);
    config.serversPerMix = scenario.farm.servers;
    run.sweep = fleetSweep(run.arrivals, scenario.farm, cost, config);
    return run;
}

} // namespace vepro::serve
