#ifndef VEPRO_SERVE_FLEET_HPP
#define VEPRO_SERVE_FLEET_HPP

/**
 * @file
 * Fleet optimization: which backend mix encodes cheapest at the SLA?
 *
 * The sweep enumerates server mixes over the named machine profiles —
 * one homogeneous mix per backend plus, when at least two profiles are
 * in play, a round-robin "blend" — and replays the identical arrival
 * sequence through each mix under two static regimes:
 *
 *  - slow-preset: every job at the ladder's slowest (best-quality)
 *    rung — the quality-first operating point;
 *  - fast-preset: every job at the fastest rung — the latency-first
 *    point.
 *
 * Per (mix, regime) row it reports $/1k-encodes (provisioned cost:
 * servers x hourly price x horizon, NOT per-job billing — idle servers
 * still cost money), J/encode, and the deadline-miss rate, then names
 * the cheapest mix meeting the miss budget in each regime. The
 * headline question — after "Where to Encode" (Mathá et al.) — is
 * whether that winner CHANGES between the regimes: fixed-function
 * hardware wins when cores drown at slow presets, while the cheapest
 * general-purpose cores win once fast presets fit the deadline.
 *
 * Everything downstream of cost resolution is pure, so the fleet table
 * is byte-identical across --jobs values and warm-store reruns (the CI
 * fleet-smoke contract).
 */

#include <string>
#include <vector>

#include "lab/orchestrator.hpp"
#include "serve/farm.hpp"
#include "serve/scenario.hpp"

namespace vepro::serve
{

/** Sweep shape. */
struct FleetConfig {
    /** Profiles to mix; empty = the full registry in registry order. */
    std::vector<std::string> backends;
    /** Servers in every mix (homogeneous and blend alike), so rows are
     *  cost-comparable. */
    int serversPerMix = 4;
    /** SLA: max deadline-miss rate a mix may have and still "meet". */
    double missBudget = 0.01;
};

/** One named server mix under test. */
struct FleetMix {
    std::string name;
    std::vector<ServerGroup> groups;
};

/** One (mix, regime) row of the fleet table. */
struct FleetRow {
    std::string mix;
    std::string regime;  ///< "slow-preset" or "fast-preset".
    int preset = 0;      ///< The regime's static rung.
    size_t completed = 0;
    size_t rejected = 0;
    double missRate = 0.0;
    double dollarsPer1k = 0.0;    ///< Provisioned $ per 1000 encodes.
    double joulesPerEncode = 0.0;
    bool meetsSla = false;        ///< missRate <= missBudget.
};

struct FleetSweepResult {
    std::vector<FleetMix> mixes;
    std::vector<FleetRow> rows;   ///< Mix-major, slow regime first.
    core::Table table{std::vector<std::string>{"mix"}};
    /** Cheapest mix meeting the budget per regime; "(none)" when every
     *  mix busts it. */
    std::string cheapestSlow;
    std::string cheapestFast;
    bool winnerChanged = false;
    std::string verdict;          ///< One-line headline for the CLI.
};

/**
 * Run the sweep over @p arrivals, prepared once (ArrivalSet) for all
 * its farms. @p cost must already be resolved (resolveOn) for every
 * backend in @p config and both ladder ends. Pure and deterministic.
 */
FleetSweepResult fleetSweep(const std::vector<UploadJob> &arrivals,
                            const FarmConfig &farm,
                            const FleetCostOracle &cost,
                            const FleetConfig &config);

/** A fleet run's inputs + outputs, mirroring ScenarioRun. */
struct FleetRun {
    std::vector<UploadJob> arrivals;
    FleetSweepResult sweep;
};

/**
 * The vepro-serve --fleet driver: resolve costs for every backend as
 * one batch on @p orch, then sweep. Like runScenario, the table is
 * byte-identical for any worker count. @p jobs is not read: it is
 * kept only because ledger/ledger.cpp passes it; delete it together
 * with that argument.
 */
FleetRun runFleetScenario(const ServeScenario &scenario,
                          lab::Orchestrator &orch, int jobs,
                          FleetConfig config);

} // namespace vepro::serve

#endif // VEPRO_SERVE_FLEET_HPP
