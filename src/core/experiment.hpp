#ifndef VEPRO_CORE_EXPERIMENT_HPP
#define VEPRO_CORE_EXPERIMENT_HPP

/**
 * @file
 * Shared experiment plumbing for the bench binaries: standard sweep
 * points, quick/full scaling, the fused encode+simulate pipeline used by
 * every microarchitectural figure, and the thread-pool driver that runs
 * independent sweep points concurrently.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/flags.hpp"
#include "encoders/encoder_model.hpp"
#include "uarch/core.hpp"
#include "video/suite.hpp"

namespace vepro::core
{

/** Run-scale options shared by vepro-lab and the benches; the member
 *  initializers are the defaults, which are the --quick scale. */
struct RunScale {
    /** Suite geometry: 1/8 scale and 6 frames; --full gives 1/4 and 12. */
    video::SuiteScale suite{8, 6};
    /** Videos to run; empty = the whole vbench-mini suite. */
    std::vector<std::string> videos;
    /**
     * Cap on retained ops for core-model traces. 0 = uncapped and
     * unsampled: the fused streaming pipeline simulates every dynamic
     * op, which stays O(1) in memory but costs proportionally more time.
     */
    size_t maxTraceOps = 1'200'000;
    /** Worker threads for independent sweep points (--jobs=N;
     *  0 = auto-detect, resolved to a concrete count at parse time). */
    int jobs = 1;
    /**
     * Named machine profile the point simulates on (--backend=NAME):
     * "" = the default xeon-bdw geometry, i.e. exactly the config every
     * pre-backend run used, so the default changes nothing. Must name a
     * core-model profile — fixed-function backends (hw-enc) have no
     * trace to simulate and are priced analytically by serve's cost
     * model instead. Changes the measured numbers, so it is a cache
     * identity field (see lab::JobSpec::canonicalKey).
     */
    std::string backend;
    /** Bypass the lab result cache: recompute (and refresh) every point. */
    bool noCache = false;
    /** Directory of the persistent lab result store. */
    std::string storeDir = ".vepro-lab";

    /** The flag table over @p out, narrowed to the flags a binary reads
     *  (every row when @p reads is empty). --full applies before
     *  --uncapped, so the two run uncapped in either order. */
    static FlagTable flags(RunScale &out,
                           const std::vector<std::string> &reads = {});
    /** A bench main's parse of --quick, --full and the flags it @p reads
     *  besides; a usage error exits 2. */
    static RunScale fromArgs(int argc, char **argv,
                             const std::vector<std::string> &reads);
};

/** The CRF sweep points used throughout the paper's Section 4. */
const std::vector<int> &crfSweepAv1();  ///< {10, 20, 30, 40, 50, 60}

/** Map a 0-63 family CRF onto an equivalent 0-51 family CRF. */
int mapCrfToX26x(int crf_av1);

/** Encode + microarchitectural simulation of one sweep point. */
struct SweepPoint {
    encoders::EncodeResult encode;
    uarch::CoreStats core;
};

/**
 * The probe configuration runPoint uses for a given scale: the first
 * 150,000 ops of every 600,000 up to scale.maxTraceOps, or every op
 * when scale.maxTraceOps is 0.
 */
trace::ProbeConfig tracingConfig(const RunScale &scale);

/**
 * Simulate one trace on @p scale's machine: build the uarch::StreamCore
 * for scale.backend, hand it to @p feed, flush it, and return its
 * statistics. A live encode (runPoint), a capture next to a FileSink and
 * a TraceFile replay (the lab's trace cache) all feed it, so every path
 * simulates a point the same way.
 */
uarch::CoreStats simulate(const RunScale &scale,
                          const std::function<void(trace::TraceSink &)> &feed);

/**
 * Run one encode with op tracing and simulate it (simulate()) fused:
 * the encode streams its ops straight into the core model, so no trace
 * is materialised. Numerically identical to capturing the trace and
 * replaying it. The encode also builds its task graph, as a capture
 * does, so both paths record the same makespans.
 */
SweepPoint runPoint(const encoders::EncoderModel &encoder,
                    const video::Video &clip, int crf, int preset,
                    const RunScale &scale);

/**
 * One-pass multi-config simulation: run ONE encode and fan its trace
 * through a trace::MuxSink into @p configs.size() independent
 * uarch::StreamCore instances, returning one SweepPoint per config.
 * Each returned point's CoreStats is bit-identical to what a sequential
 * runPoint with that config would measure (every core sees the exact
 * record stream, in order), but the encode+emit cost is paid once
 * instead of K times. The fan-out runs on the encoding thread; callers
 * that want more cores run independent points on parallelFor.
 *
 * scale.backend is ignored — the configs are explicit.
 */
std::vector<SweepPoint>
runPointMulti(const encoders::EncoderModel &encoder, const video::Video &clip,
              int crf, int preset, const RunScale &scale,
              const std::vector<uarch::CoreConfig> &configs);

/**
 * Resolve a --jobs worker count: values >= 1 pass through, 0 means
 * auto-detect via std::thread::hardware_concurrency() with a floor of 1
 * (the detection may report 0 on exotic platforms). Shared by the sweep
 * driver and vepro-lab so every layer agrees on what "auto" means.
 */
int resolveJobs(int jobs);

/**
 * Run fn(0..n-1) on a pool of @p jobs worker threads (inline when jobs
 * <= 1 or n <= 1). Each index is claimed atomically, so items need not
 * take uniform time. Exceptions propagate: the first one thrown is
 * rethrown on the caller's thread after all workers join.
 *
 * Sweep points are independent — each worker's encode owns its probe
 * and sinks — which makes this the driver for every bench sweep.
 */
void parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn);

/** The suite entries selected by @p scale (all 15 when unfiltered). */
std::vector<video::SuiteEntry> selectedVideos(const RunScale &scale);

} // namespace vepro::core

#endif // VEPRO_CORE_EXPERIMENT_HPP
