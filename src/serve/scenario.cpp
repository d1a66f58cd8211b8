#include "serve/scenario.hpp"

#include <memory>

namespace vepro::serve
{

ServeScenario
referenceScenario(bool quick)
{
    ServeScenario s;

    // Calibrated against the SVT-AV1 model costs on 4x8-core servers
    // (~116 s at preset 2 down to ~13 s at preset 8 per full clip):
    // mean arrival rate ~0.1 uploads/s is ~2.9x the farm's capacity at
    // the slowest preset but only ~0.33x at the fastest, so the static
    // slow baseline drowns while adaptive switching keeps up.
    s.traffic.seed = 7;
    s.traffic.users = 1000;
    s.traffic.uploadsPerUserPerHour = 0.26;
    s.traffic.diurnalAmplitude = 0.6;
    s.traffic.clips = {"desktop", "game1", "house"};
    s.traffic.crfs = {32, 45};
    if (quick) {
        // CI-sized window; the diurnal period is compressed so the
        // short window still sweeps base -> peak -> base.
        s.traffic.durationSec = 1800.0;
        s.traffic.diurnalPeriodSec = 3600.0;
    } else {
        s.traffic.durationSec = 7200.0;
        s.traffic.diurnalPeriodSec = 86400.0;
        s.traffic.diurnalPhaseSec = 0.0;
    }

    s.farm.servers = 4;
    s.farm.admissionLimit = 0;
    // Generous enough that the slowest preset meets it on an idle farm
    // (adaptive only sheds quality when the queue demands it).
    s.farm.latencyTargetSec = 180.0;

    // Defaults: SVT-AV1 ladder {2,4,6,8}, divisor 16 / 2 frames specs.
    s.cost = CostModelConfig{};
    return s;
}

ScenarioRun
runScenario(const ServeScenario &scenario, lab::Orchestrator &orch,
            int /*jobs*/)
{
    CostModel cost(orch, scenario.cost);
    cost.resolve(rungClipIds(scenario.traffic), scenario.traffic.crfs);

    ScenarioRun run;
    run.arrivals = generateTraffic(scenario.traffic);
    const ArrivalSet set(run.arrivals);

    std::vector<std::unique_ptr<Policy>> policies;
    for (int preset : scenario.cost.presets) {
        policies.push_back(std::make_unique<StaticPolicy>(preset));
    }
    policies.push_back(std::make_unique<AdaptivePolicy>());
    for (const auto &policy : policies) {
        run.reports.push_back(
            simulateFarm(set, scenario.farm, *policy, cost).sla);
    }
    run.table = slaTable(run.reports);
    return run;
}

} // namespace vepro::serve
