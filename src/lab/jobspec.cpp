#include "lab/jobspec.hpp"

#include <cstdio>

#include "backend/profile.hpp"

namespace vepro::lab
{

std::string
JobSpec::canonicalKey() const
{
    // Fixed field order; append-only. Changing the order, renaming a
    // field, or changing a default's meaning requires a kSchemaVersion
    // bump so old cache entries are orphaned, not misread.
    std::string key;
    key.reserve(128);
    key += "encoder=";
    key += encoder;
    key += ";video=";
    key += video;
    key += ";crf=";
    key += std::to_string(crf);
    key += ";preset=";
    key += std::to_string(preset);
    key += ";threads=";
    key += std::to_string(threads);
    key += ";divisor=";
    key += std::to_string(divisor);
    key += ";frames=";
    key += std::to_string(frames);
    key += ";maxTraceOps=";
    key += std::to_string(maxTraceOps);
    // Appended only when it names a different machine: "" and the
    // default profile name both mean the pre-backend default geometry
    // and keep the pre-backend key byte-identical (old store entries
    // stay hits).
    if (!backend.empty() && backend != backend::kDefaultProfile) {
        key += ";backend=";
        key += backend;
    }
    // Ladder rung: scale == 1 (full resolution, the default) keeps the
    // pre-ladder key byte-identical; only a real rung re-keys the point.
    if (scale != 1) {
        key += ";scale=";
        key += std::to_string(scale);
    }
    return key;
}

std::string
JobSpec::traceKey() const
{
    // Encode-side fields only, fixed order, append-only — same
    // evolution rules as canonicalKey(). The backend is absent on
    // purpose: it changes how the trace is SIMULATED, never the trace
    // itself (see the header comment).
    std::string key;
    key.reserve(128);
    key += "encoder=";
    key += encoder;
    key += ";video=";
    key += video;
    key += ";crf=";
    key += std::to_string(crf);
    key += ";preset=";
    key += std::to_string(preset);
    key += ";threads=";
    key += std::to_string(threads);
    key += ";divisor=";
    key += std::to_string(divisor);
    key += ";frames=";
    key += std::to_string(frames);
    key += ";maxTraceOps=";
    key += std::to_string(maxTraceOps);
    // Unlike the backend, the ladder rung DOES change the encode
    // input (and therefore the op stream), so it is trace identity —
    // but only when active, keeping every pre-ladder trace warm.
    if (scale != 1) {
        key += ";scale=";
        key += std::to_string(scale);
    }
    return key;
}

std::string
JobSpec::traceHashHex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64("vepro-trace/v2|" + traceKey())));
    return buf;
}

uint64_t
JobSpec::hashForSchema(int schema_version) const
{
    return fnv1a64("vepro-lab/v" + std::to_string(schema_version) + "|" +
                   canonicalKey());
}

std::string
JobSpec::hashHex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash()));
    return buf;
}

std::string
JobSpec::label() const
{
    std::string out = encoder + " " + video + " crf=" + std::to_string(crf) +
                      " preset=" + std::to_string(preset);
    if (threads != 1) {
        out += " threads=" + std::to_string(threads);
    }
    if (!backend.empty() && backend != backend::kDefaultProfile) {
        out += " backend=" + backend;
    }
    if (scale != 1) {
        out += " scale=1/" + std::to_string(scale);
    }
    return out;
}

core::RunScale
JobSpec::toRunScale() const
{
    core::RunScale scale;
    scale.suite.divisor = divisor;
    scale.suite.frames = frames;
    scale.maxTraceOps = maxTraceOps;
    scale.jobs = 1;  // The orchestrator owns the worker pool.
    scale.backend = backend;
    return scale;
}

JobSpec
JobSpec::withScale(const core::RunScale &scale)
{
    JobSpec spec;
    spec.divisor = scale.suite.divisor;
    spec.frames = scale.suite.frames;
    spec.maxTraceOps = scale.maxTraceOps;
    spec.backend = scale.backend;
    return spec;
}

} // namespace vepro::lab
