#ifndef VEPRO_LAB_JOBSPEC_HPP
#define VEPRO_LAB_JOBSPEC_HPP

/**
 * @file
 * The canonical description of one experiment point and its stable
 * content hash — the key of the persistent result store.
 *
 * A JobSpec captures everything that determines a sweep point's
 * numbers: encoder, clip, CRF, preset, and the run-scale knobs (suite
 * geometry + trace cap) that change the synthesised input or the
 * sampled window. Anything that merely changes *how* a point is
 * executed — worker count, cache directory, progress verbosity — is
 * deliberately excluded, so the same point computed by any driver lands
 * on the same cache entry.
 */

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "core/fnv.hpp"

namespace vepro::lab
{

/**
 * Store schema version. Salted into every content hash: bumping it
 * (whenever the record layout or the meaning of any spec field changes)
 * orphans old entries instead of misreading them.
 */
constexpr int kSchemaVersion = 4;  // 2: lazy kernel events moved
                                   // sampled-capture block boundaries;
                                   // 3: records carry makespans;
                                   // 4: records carry the op mix.

/** One experiment point. Field order never affects the hash. */
struct JobSpec {
    std::string encoder = "SVT-AV1";  ///< Registry name.
    std::string video;                ///< Suite clip name.
    int crf = 32;
    int preset = 4;

    // Run-scale knobs that alter the measured numbers.
    int divisor = 8;      ///< SuiteScale::divisor.
    int frames = 6;       ///< SuiteScale::frames.
    uint64_t maxTraceOps = 1'200'000;  ///< 0 = uncapped full fidelity.

    /**
     * Named machine profile the point simulates on (backend registry,
     * src/backend). Identity: a different core geometry measures
     * different numbers. Compatibility rule: the field enters the
     * canonical key ONLY when it names a non-default profile — both ""
     * and "xeon-bdw" (the default profile, whose geometry is exactly
     * the pre-backend default CoreConfig) keep the exact pre-backend
     * key, so every existing store entry still resolves as a cache hit.
     */
    std::string backend;

    /**
     * ABR ladder rung: extra integer downscale applied to the suite
     * clip AFTER SuiteScale geometry (scale=2 halves each dimension
     * again — a "half-resolution rung" of the experiment's nominal
     * resolution). Identity: a different input resolution measures a
     * different encode. Compatibility rule: enters the canonical key
     * (and the trace key — it changes the encode input, hence the op
     * stream) ONLY when != 1, so every pre-ladder store and trace entry
     * keeps its exact key and stays a cache hit.
     */
    int scale = 1;

    /**
     * The point needs no core simulation: one mix-only encode with its
     * task graph fills the record (instructions, bitrate, PSNR, op mix,
     * makespans) and its CoreStats stay zero. No trace is written.
     * Compatibility rule: enters the canonical key ONLY when set, as
     * `;encodeOnly=1`. Such a record depends on neither the op cap nor
     * the machine, so its key writes `maxTraceOps=0` and no backend
     * whatever those fields hold.
     */
    bool encodeOnly = false;

    /** Whether the backend enters the canonical key (and the record's
     *  echo of it): it names a non-default profile for a point that is
     *  simulated. */
    bool keysBackend() const;

    /**
     * Canonical key: every identity field, fixed order, 'k=v'
     * ';'-joined. Two specs are the same experiment iff their keys are
     * byte-equal. `threads=1` is a literal: the lab simulates one
     * thread, and the field stays so that no key moves.
     */
    std::string canonicalKey() const;

    /** FNV-1a 64 of the canonical key salted with @p schema_version. */
    uint64_t hashForSchema(int schema_version) const;

    /** The store key: hashForSchema(kSchemaVersion). */
    uint64_t hash() const { return hashForSchema(kSchemaVersion); }

    /** hash() as 16 lowercase hex digits (the store file stem). */
    std::string hashHex() const;

    /**
     * The trace-cache key: ONLY the encode-side identity fields
     * (encoder, video, crf, preset, the literal threads=1, divisor,
     * frames, maxTraceOps, scale). The machine profile (backend) is
     * deliberately excluded — the captured op stream is a property of
     * the encode, not of the core it is later simulated on, so one
     * trace file serves every machine profile of the same encode
     * (capture once, replay per backend).
     */
    std::string traceKey() const;

    /** FNV-1a 64 of "vepro-trace/v3|" + traceKey(), as 16 lowercase
     *  hex digits (the trace file stem under <store>/traces/). The
     *  version moves with the capture metadata's layout (v2: it carries
     *  makespans; v3: the op mix), so an older capture is a plain
     *  miss. */
    std::string traceHashHex() const;

    /** Short human label for progress lines. */
    std::string label() const;

    /** The RunScale a runner needs to execute this spec. */
    core::RunScale toRunScale() const;

    /** Copy the scale-identity fields out of a bench RunScale. */
    static JobSpec withScale(const core::RunScale &scale);

    bool operator==(const JobSpec &other) const
    {
        return canonicalKey() == other.canonicalKey();
    }
};

/** FNV-1a 64-bit hash of a byte string (store and trace-cache keys). */
using core::fnv1a64;

} // namespace vepro::lab

#endif // VEPRO_LAB_JOBSPEC_HPP
