#include "trace/profile.hpp"

#include <algorithm>
#include <cstdio>

#include "trace/probe.hpp"

namespace vepro::trace
{

std::vector<SiteProfile>
profileReport(const std::unordered_map<uint64_t, uint64_t> &site_ops,
              double min_share)
{
    uint64_t total = 0;
    for (const auto &[pc, ops] : site_ops) {
        total += ops;
    }
    std::vector<SiteProfile> rows;
    if (total == 0) {
        return rows;
    }
    for (const auto &[pc, ops] : site_ops) {
        double share = 100.0 * static_cast<double>(ops) /
                       static_cast<double>(total);
        if (share < min_share) {
            continue;
        }
        rows.push_back({siteName(pc), ops, share});
    }
    std::sort(rows.begin(), rows.end(),
              [](const SiteProfile &a, const SiteProfile &b) {
                  return a.ops != b.ops ? a.ops > b.ops : a.name < b.name;
              });
    return rows;
}

std::vector<SiteProfile>
profileReport(const SiteProfileSink &sink, double min_share)
{
    return profileReport(sink.siteOps(), min_share);
}

std::string
formatProfile(const std::vector<SiteProfile> &profile)
{
    std::string out =
        "  %   cumulative      self\n time   instructions  instructions  "
        "name\n";
    double cumulative = 0.0;
    for (const SiteProfile &row : profile) {
        cumulative += row.percent;
        char buf[160];
        std::snprintf(buf, sizeof buf, "%5.1f  %6.1f%%       %12llu  %s\n",
                      row.percent, cumulative,
                      static_cast<unsigned long long>(row.ops),
                      row.name.c_str());
        out += buf;
    }
    return out;
}

} // namespace vepro::trace
