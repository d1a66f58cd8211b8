#ifndef VEPRO_SERVE_POLICY_HPP
#define VEPRO_SERVE_POLICY_HPP

/**
 * @file
 * Pluggable scheduling policies for the encode farm: given a job about
 * to start and the time left until its deadline, choose the encoder
 * preset it runs at.
 *
 * Two families ship:
 *  - StaticPolicy: every job runs the same preset — the baselines the
 *    paper-style characterization implies (fixed quality, whatever the
 *    latency outcome);
 *  - AdaptivePolicy: speed-adaptive preset switching (after
 *    Eichermüller et al., PAPERS.md) — pick the SLOWEST (best-quality)
 *    preset whose predicted completion still meets the job's latency
 *    deadline, falling back to the fastest rung when nothing fits.
 *    Under load the farm automatically trades quality for latency, and
 *    trades back when the queue drains.
 *
 * Policies are consulted at dispatch time (not at arrival), so the
 * decision sees the queueing delay the job has already absorbed. They
 * decide from numbers only: the job's slack and the predicted service
 * seconds of each ladder rung on the dispatching server, which the farm
 * reads from a per-group cost table filled once per run.
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace vepro::serve
{

/**
 * What the farm asks about encode costs: predicted service seconds
 * per (clip, crf, preset) and the preset ladder policies choose from.
 * The farm queries each (clip, crf, rung) cell once per run into the
 * cost table its policies read. Implemented by serve::CostModel for
 * real model-derived costs and by test fakes for policy-logic pins.
 */
class CostOracle
{
  public:
    virtual ~CostOracle() = default;

    /** Predicted wall seconds to encode @p clip at (@p crf, @p preset)
     *  on one farm server. */
    virtual double serviceSeconds(const std::string &clip, int crf,
                                  int preset) const = 0;

    /** Presets a policy may choose, ordered slowest (best quality)
     *  first. Never empty. */
    virtual const std::vector<int> &presetLadder() const = 0;
};

/**
 * A CostOracle that can price the same combo on several named machine
 * profiles (backend registry, src/backend). The base-class methods
 * answer for the oracle's primary backend; the *On variants take the
 * profile name explicitly, which is what the heterogeneous farm and
 * the fleet sweep consult per server. Implemented by serve::CostModel.
 */
class FleetCostOracle : public CostOracle
{
  public:
    /** Predicted wall seconds to encode @p clip at (@p crf, @p preset)
     *  on one server of @p backend ("" = the default profile). */
    virtual double serviceSecondsOn(const std::string &backend,
                                    const std::string &clip, int crf,
                                    int preset) const = 0;

    /**
     * Modelled energy in joules one such encode costs on @p backend:
     * dynamic event energy plus static burn over the service time (see
     * CostModel docs for the exact evaluation order).
     */
    virtual double energyJoulesOn(const std::string &backend,
                                  const std::string &clip, int crf,
                                  int preset) const = 0;
};

/** Scheduling policy: preset selection at dispatch time. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Row label in the SLA table ("static-p2", "adaptive", ...). */
    virtual std::string name() const = 0;

    /**
     * Choose the preset the job being dispatched runs at. The farm
     * throws std::out_of_range when the answer is not on @p ladder.
     *
     * @param slack   Seconds from dispatch to the job's SLA deadline
     *                (deadline - dispatch time; negative once late).
     * @param ladder  Presets to choose from, slowest (best quality)
     *                first: the oracle's presetLadder().
     * @param seconds seconds[i] is the job's predicted service time at
     *                ladder[i] on the dispatching server group.
     */
    virtual int choosePreset(double slack, std::span<const int> ladder,
                             std::span<const double> seconds) const = 0;
};

/** Baseline: every job runs @p preset, load notwithstanding. */
class StaticPolicy final : public Policy
{
  public:
    explicit StaticPolicy(int preset);
    std::string name() const override;
    int choosePreset(double slack, std::span<const int> ladder,
                     std::span<const double> seconds) const override;

  private:
    int preset_;
};

/** Speed-adaptive preset switching (see file docs): the first rung with
 *  seconds[i] <= slack, else the last. Throws std::logic_error on an
 *  empty ladder. */
class AdaptivePolicy final : public Policy
{
  public:
    std::string name() const override;
    int choosePreset(double slack, std::span<const int> ladder,
                     std::span<const double> seconds) const override;
};

} // namespace vepro::serve

#endif // VEPRO_SERVE_POLICY_HPP
