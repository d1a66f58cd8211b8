#ifndef VEPRO_SERVE_SCENARIO_HPP
#define VEPRO_SERVE_SCENARIO_HPP

/**
 * @file
 * Ready-made serve scenarios and the policy-sweep driver behind the
 * vepro-serve binary: resolve costs once (cache-first), replay the
 * same seeded traffic under every policy, and render the per-policy
 * SLA table.
 *
 * The committed reference scenario (referenceScenario(quick=true),
 * vepro-serve --quick) is a deliberate overload: peak arrival rate
 * exceeds the farm's capacity at the slowest preset but not at the
 * fastest, so the static slow-preset baseline drowns in deadline
 * misses while speed-adaptive switching sheds quality to stay inside
 * the latency target — the acceptance pin of ISSUE 7 and the CI
 * serve-smoke leg.
 */

#include <string>
#include <vector>

#include "lab/orchestrator.hpp"
#include "serve/costmodel.hpp"
#include "serve/farm.hpp"
#include "serve/traffic.hpp"

namespace vepro::serve
{

/** Everything one vepro-serve run needs. */
struct ServeScenario {
    TrafficConfig traffic;
    FarmConfig farm;
    CostModelConfig cost;
};

/** The committed reference overload scenario; @p quick shrinks the
 *  window for CI while keeping the overload shape. */
ServeScenario referenceScenario(bool quick);

/** Outcome of sweeping every policy over one scenario. */
struct ScenarioRun {
    std::vector<SlaReport> reports;  ///< Static ladder order, then adaptive.
    std::vector<UploadJob> arrivals;
    /** slaTable(reports); placeholder header until assigned. */
    core::Table table{std::vector<std::string>{"policy"}};
};

/**
 * Run @p scenario: resolve the cost combos as one batch on @p orch
 * (its OrchestratorOptions::jobs workers), then simulate one
 * StaticPolicy per ladder rung plus AdaptivePolicy over the identical
 * arrival sequence. The policy loop is pure, so the resulting table is
 * byte-identical for any worker count. @p jobs is not read: it is kept
 * only because ledger/ledger.cpp passes it; delete it together with
 * that argument.
 */
ScenarioRun runScenario(const ServeScenario &scenario,
                        lab::Orchestrator &orch, int jobs);

} // namespace vepro::serve

#endif // VEPRO_SERVE_SCENARIO_HPP
