#ifndef VEPRO_LAB_ORCHESTRATOR_HPP
#define VEPRO_LAB_ORCHESTRATOR_HPP

/**
 * @file
 * Sweep orchestrator: figures declare the JobSpecs they need, the
 * orchestrator dedupes the union, satisfies what it can from the
 * persistent store, runs the rest on the core::parallelFor pool — with
 * per-job wall-clock timing, one retry on a thrown attempt (a second
 * failure is recorded, not fatal), and serialized progress lines — and
 * fans results back out per figure. request() + run() is the only
 * engine: vepro-serve's cost resolution is a closed batch too.
 *
 * Decoded clips are reference-counted: a clip is loaded lazily when its
 * first cache-missing point starts and released as soon as its last
 * point completes, so a --full sweep never holds the whole suite
 * resident (and an all-cache-hit run decodes nothing at all).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "lab/jobspec.hpp"
#include "lab/progress.hpp"
#include "lab/store.hpp"
#include "lab/tracecache.hpp"
#include "video/frame.hpp"

namespace vepro::lab
{

struct OrchestratorOptions {
    int jobs = 1;                      ///< Worker threads.
    /**
     * Look results up in the store, and capture each unique capped
     * encode's op trace to `<store>/traces/` to replay it instead of
     * re-running the encoder when the same encode is requested again
     * (possibly on a different backend). Replays are
     * bit-identical to the live fused pipeline, so the trace cache
     * changes wall-clock only, never results. Uncapped and
     * encode-only points are never captured. false (--no-cache)
     * recomputes every point live; fresh results are still saved.
     */
    bool useCache = true;
    std::string storeDir = ".vepro-lab";
    Progress *progress = &Progress::standard();
    bool verbose = true;               ///< Per-job progress lines.
    /**
     * Test seam: replaces the default encode+simulate runner (and the
     * clip ref-counting that feeds it). Production code leaves this
     * empty.
     */
    std::function<JobResult(const JobSpec &)> runner;

    /** The options a bench derives from its parsed RunScale. */
    static OrchestratorOptions fromRunScale(const core::RunScale &scale);
};

/** Kept only because ledger/ledger.cpp calls it; delete it together
 *  with that call. Neither field is read. */
struct ServiceOptions {
    int shards = 4;
    int workers = 1;
};

class Orchestrator
{
  public:
    explicit Orchestrator(OrchestratorOptions opts = {});

    /**
     * Register one point and get its handle. Requests dedupe: the same
     * spec (by canonical key) from any number of figures returns the
     * same handle and runs at most once.
     */
    size_t request(const JobSpec &spec);

    /**
     * Resolve every outstanding request: cache lookups first, then the
     * unique misses on the worker pool. Each miss is retried once if
     * its first attempt throws; a job that fails twice is recorded as
     * FAILED (failed(handle), with the error string) and the sweep
     * keeps draining — completed work is never lost to one bad spec.
     * May be called again after further request()s.
     */
    void run();

    /** Kept only because ledger/ledger.cpp calls them; delete them
     *  together with those calls. Both do nothing. */
    void startService(const ServiceOptions &) {}
    void stopService() {}

    /** The result for a handle. @throws std::logic_error before run();
     *  rethrows the recorded error for a failed job. */
    const JobResult &result(size_t handle) const;

    /** Whether the job resolved as a terminal failure. */
    bool failed(size_t handle) const;
    /** The recorded error of a failed job ("" when it succeeded). */
    const std::string &error(size_t handle) const;

    size_t requested() const { return jobs_.size(); }  ///< Unique jobs.
    size_t cacheHits() const { return cacheHits_; }
    size_t computed() const { return computed_; }
    size_t retries() const { return retries_; }
    size_t failures() const { return failures_; }

    // ---- Trace-cache observability (the "no encoder work" seam) -----
    /** Times the encoder model actually ran (live encodes). A fully
     *  trace-warm run reports 0. */
    size_t encoderRuns() const { return encoderRuns_.load(); }
    /** Unique encodes captured to the trace cache this process. */
    size_t traceCaptures() const { return traceCaptures_.load(); }
    /** Jobs satisfied by replaying an on-disk trace. */
    size_t traceReplays() const { return traceReplays_.load(); }

    const ResultStore &store() const { return store_; }
    const TraceCache &traceCache() const { return traceCache_; }

    /** "N unique jobs, H cache hits, C computed (cache hits: P%)" */
    std::string summaryLine() const;

    /** "encoder invoked N times (C trace captures, R trace replays)" */
    std::string traceLine() const;

  private:
    struct ClipSlot {
        std::mutex mutex;
        std::shared_ptr<const video::Video> clip;
        size_t remaining = 0;  ///< Pending points still needing it.
    };

    JobResult execute(const JobSpec &spec);
    /** The --no-cache path: live encode fused with the core model
     *  (runPoint), no trace written or read. An encode-only point
     *  always comes here and runs the mix-only encode alone. */
    JobResult executeDirect(const JobSpec &spec);
    /** Replay an on-disk trace through the spec's core model
     *  (core::simulate on its backend); the encode summary comes from
     *  the trace metadata. @throws on any corrupt trace (caller
     *  recaptures). */
    JobResult replayTrace(const JobSpec &spec, const std::string &path);
    /** Live encode that also captures the trace to lease.tmpPath,
     *  simulated through core::simulate like a replay. */
    JobResult captureTrace(const JobSpec &spec,
                           const TraceCache::Lease &lease);
    /** execute() with the one-retry policy; never throws — a second
     *  failure comes back as a failed JobResult. */
    JobResult executeWithRetry(const JobSpec &spec,
                               std::atomic<size_t> &retried);
    void prepareMiss(const JobSpec &spec);
    /** The slot behind @p handle. @throws std::out_of_range for a bad
     *  handle, std::logic_error (naming @p caller) before run(). */
    const JobResult &lookup(size_t handle, const char *caller) const;
    std::shared_ptr<const video::Video> acquireClip(const JobSpec &spec);
    void releaseClip(const JobSpec &spec);
    static std::string clipKey(const JobSpec &spec);

    OrchestratorOptions opts_;
    ResultStore store_;
    TraceCache traceCache_;

    std::deque<JobSpec> jobs_;
    std::deque<std::unique_ptr<JobResult>> results_;
    std::unordered_map<std::string, size_t> byKey_;

    std::unordered_map<std::string,
                       std::shared_ptr<const encoders::EncoderModel>>
        encoders_;
    std::unordered_map<std::string, std::unique_ptr<ClipSlot>> clips_;
    std::mutex clips_mutex_;  ///< Guards the clips_ map (not the slots).

    // Relaxed atomics: incremented from parallelFor workers, read from
    // accessors after the work drains.
    std::atomic<size_t> encoderRuns_{0};
    std::atomic<size_t> traceCaptures_{0};
    std::atomic<size_t> traceReplays_{0};

    size_t cacheHits_ = 0;
    size_t computed_ = 0;
    size_t retries_ = 0;
    size_t failures_ = 0;
};

} // namespace vepro::lab

#endif // VEPRO_LAB_ORCHESTRATOR_HPP
