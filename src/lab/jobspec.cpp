#include "lab/jobspec.hpp"

#include <cstdio>

#include "backend/profile.hpp"

namespace vepro::lab
{

namespace
{

/** The fields both keys open with, in their fixed order, and room for
 *  the rest: a key is built on every request, in one allocation. The
 *  lab simulates one thread, so `threads=1` is a literal. */
std::string
keyHead(const JobSpec &s)
{
    std::string key;
    key.reserve(128);
    key.append("encoder=").append(s.encoder).append(";video=").append(s.video);
    key.append(";crf=").append(std::to_string(s.crf));
    key.append(";preset=").append(std::to_string(s.preset));
    key.append(";threads=1;divisor=").append(std::to_string(s.divisor));
    key.append(";frames=").append(std::to_string(s.frames));
    return key;
}

} // namespace

bool
JobSpec::keysBackend() const
{
    return !encodeOnly && !backend.empty() &&
           backend != backend::kDefaultProfile;
}

std::string
JobSpec::canonicalKey() const
{
    // Fixed field order; append-only. Changing the order, renaming a
    // field, or changing a default's meaning requires a kSchemaVersion
    // bump so old cache entries are orphaned, not misread. An
    // encode-only record holds the whole run's counts on no machine, so
    // neither the cap nor the backend reaches its key.
    std::string key = keyHead(*this);
    key.append(";maxTraceOps=")
        .append(std::to_string(encodeOnly ? 0 : maxTraceOps));
    // Appended only when it names a different machine: "" and the
    // default profile name both mean the pre-backend default geometry
    // and keep the pre-backend key byte-identical (old store entries
    // stay hits).
    if (keysBackend()) {
        key.append(";backend=").append(backend);
    }
    // Ladder rung: scale == 1 (full resolution, the default) keeps the
    // pre-ladder key byte-identical; only a real rung re-keys the point.
    if (scale != 1) {
        key.append(";scale=").append(std::to_string(scale));
    }
    if (encodeOnly) {
        key += ";encodeOnly=1";
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
    std::string key = keyHead(*this);
    key.append(";maxTraceOps=").append(std::to_string(maxTraceOps));
    // Unlike the backend, the ladder rung DOES change the encode
    // input (and therefore the op stream), so it is trace identity —
    // but only when active, keeping every pre-ladder trace warm.
    if (scale != 1) {
        key.append(";scale=").append(std::to_string(scale));
    }
    return key;
}

std::string
JobSpec::traceHashHex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64("vepro-trace/v3|" + traceKey())));
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
    if (keysBackend()) {
        out += " backend=" + backend;
    }
    if (scale != 1) {
        out += " scale=1/" + std::to_string(scale);
    }
    if (encodeOnly) {
        out += " encode-only";
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
