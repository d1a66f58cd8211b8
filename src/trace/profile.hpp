#ifndef VEPRO_TRACE_PROFILE_HPP
#define VEPRO_TRACE_PROFILE_HPP

/**
 * @file
 * Function-level profiling report — the repository's GNU gprof
 * substitute (the paper's tool #4: "find hot functions, which is used
 * for instruction tracing").
 *
 * A SiteProfileSink on a probe's stream attributes every recorded op to
 * the instrumented kernel/call-site in force; this module turns those
 * counters into the flat profile gprof would print.
 */

#include <string>
#include <unordered_map>
#include <vector>

#include "trace/sink.hpp"

namespace vepro::trace
{

/** One row of the flat profile. */
struct SiteProfile {
    std::string name;     ///< Instrumentation-site name (kernel).
    uint64_t ops = 0;     ///< Dynamic instructions attributed to it.
    double percent = 0.0; ///< Share of all attributed instructions.
};

/**
 * Flat profile of a per-site counter map (keys are site PCs from
 * sitePc()), hottest first.
 *
 * @param min_share Drop sites below this share (percent) of the total.
 */
std::vector<SiteProfile>
profileReport(const std::unordered_map<uint64_t, uint64_t> &site_ops,
              double min_share = 0.1);

/** Flat profile of a streaming SiteProfileSink's counters. */
std::vector<SiteProfile> profileReport(const SiteProfileSink &sink,
                                       double min_share = 0.1);

/** Render the profile as a gprof-style text table. */
std::string formatProfile(const std::vector<SiteProfile> &profile);

} // namespace vepro::trace

#endif // VEPRO_TRACE_PROFILE_HPP
