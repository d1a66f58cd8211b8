#ifndef VEPRO_LAB_STORE_HPP
#define VEPRO_LAB_STORE_HPP

/**
 * @file
 * Content-addressed persistent result store: one JSON record per
 * JobSpec hash under a `.vepro-lab/` directory.
 *
 * Durability contract:
 *  - writes are atomic (tmp file + rename), so a reader never sees a
 *    partial record — a crashed writer leaves at worst a *.tmp file
 *    that is ignored;
 *  - loads never throw on bad entries: a truncated, corrupt, or
 *    stale-schema record is warned about and reported as a miss, which
 *    makes the orchestrator recompute and overwrite it.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lab/jobspec.hpp"
#include "lab/progress.hpp"
#include "trace/probe.hpp"
#include "uarch/core.hpp"

namespace vepro::lab
{

/** The encode-side numbers the figures consume. */
struct EncodeSummary {
    double wallSeconds = 0.0;   ///< Host wall time of the encode.
    uint64_t instructions = 0;  ///< Modeled dynamic instructions.
    double bitrateKbps = 0.0;
    double psnrDb = 0.0;
    /** Ops cut by the probe cap; benches warn when non-zero. */
    uint64_t droppedOps = 0;
    /**
     * The encode's task-graph makespans on 1 … min(T, 64) cores
     * (sched::makespanCurve; read with sched::makespanAt, which answers
     * every core count past T from the last entry).
     */
    std::vector<uint64_t> makespans;
    /** The whole run's op mix (Table 2, Fig 3), a list of
     *  trace::kNumOpClasses counts in the record. */
    trace::MixCounters mix;

    /**
     * The one list of fields, in the record's order and spelling:
     * calls f(name, s.field...) once per field, passing that field of
     * every EncodeSummary in @p s (const or mutable). The field types
     * differ (double, uint64_t, or a list of uint64_t: a vector, or
     * the mix's fixed-size array), so @p f is generic.
     */
    template <class F, class... S>
    static void
    forEachField(F &&f, S &&...s)
    {
        f("wallSeconds", s.wallSeconds...);
        f("instructions", s.instructions...);
        f("bitrateKbps", s.bitrateKbps...);
        f("psnrDb", s.psnrDb...);
        f("droppedOps", s.droppedOps...);
        f("makespans", s.makespans...);
        f("mix", s.mix.byClass...);
    }

    bool operator==(const EncodeSummary &) const = default;
};

// A field added to EncodeSummary but not to forEachField fails here.
static_assert(sizeof(EncodeSummary) ==
                  5 * sizeof(uint64_t) + sizeof(std::vector<uint64_t>) +
                      sizeof(trace::MixCounters),
              "EncodeSummary::forEachField must list every field");

class JsonValue;

/**
 * The summary's JSON form, shared by the store record's `result`
 * object and the trace cache's capture metadata: appends the fields to
 * the object @p obj in forEachField order.
 */
void summaryToJson(const EncodeSummary &s, JsonValue &obj);

/** Read back what summaryToJson wrote. @throws JsonError when a field
 *  is missing or of the wrong kind. */
EncodeSummary summaryFromJson(const JsonValue &obj);

/** Everything a figure needs from one executed job. */
struct JobResult {
    EncodeSummary encode;
    uarch::CoreStats core;

    // Provenance — not part of the record's figure payload.
    double jobSeconds = 0.0;  ///< Orchestrator-measured wall clock.
    bool fromCache = false;   ///< Set by the orchestrator on load.

    /**
     * Terminal failure: the job threw on its first attempt AND its
     * retry. The orchestrator records the error here instead of
     * aborting the sweep, keeps draining the remaining jobs, and never
     * persists a failed record to the store. Reading such a result
     * through Orchestrator::result() rethrows the recorded error.
     */
    bool failed = false;
    std::string error;  ///< what() of the second failure.
};

/**
 * A writer-unique tmp name next to @p path, `<path>.<pid>-<n>.tmp`. The
 * result store and the trace cache write there and rename over @p path.
 * Two processes sharing a store (the pid) or two threads writing one key
 * (the process-wide counter) never write through one tmp file, so each
 * rename publishes a complete file and the last rename wins.
 */
std::string uniqueTmpPath(const std::string &path);

/**
 * The one warning both caches print before they drop a corrupt or
 * stale entry at @p path and recompute it; nullptr @p progress is
 * silent.
 */
void warnCorruptEntry(Progress *progress, const std::string &path,
                      const std::string &error);

class ResultStore
{
  public:
    /**
     * @param dir      Store directory; created on first save.
     * @param progress Where corrupt-entry warnings go (never throws);
     *                 nullptr silences them.
     */
    explicit ResultStore(std::string dir,
                         Progress *progress = &Progress::standard());

    /**
     * Look up a record. Returns nullopt on a miss — including when the
     * entry exists but is truncated, unparseable, from another schema
     * version, or hash-collided onto a different canonical key; those
     * cases warn via the progress reporter and are recomputed by the
     * caller, never crashed on.
     */
    std::optional<JobResult> load(const JobSpec &spec) const;

    /**
     * Persist a record atomically: serialise to uniqueTmpPath(), then
     * rename over the final path, so concurrent readers see either the
     * old complete record or the new one.
     */
    void save(const JobSpec &spec, const JobResult &result) const;

    /** The record path a spec maps to (exposed for tests/tooling). */
    std::string pathFor(const JobSpec &spec) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    Progress *progress_;
};

} // namespace vepro::lab

#endif // VEPRO_LAB_STORE_HPP
