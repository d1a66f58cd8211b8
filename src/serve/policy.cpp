#include "serve/policy.hpp"

#include <stdexcept>

namespace vepro::serve
{

StaticPolicy::StaticPolicy(int preset) : preset_(preset) {}

std::string
StaticPolicy::name() const
{
    return "static-p" + std::to_string(preset_);
}

int
StaticPolicy::choosePreset(double, std::span<const int>,
                           std::span<const double>) const
{
    return preset_;
}

std::string
AdaptivePolicy::name() const
{
    return "adaptive";
}

int
AdaptivePolicy::choosePreset(double slack, std::span<const int> ladder,
                             std::span<const double> seconds) const
{
    if (ladder.empty()) {
        throw std::logic_error("serve: empty preset ladder");
    }
    // Slowest (best-quality) rung whose predicted completion still
    // makes the deadline; when even the fastest rung cannot, take the
    // fastest anyway — it minimises how late the job lands.
    for (size_t i = 0; i < ladder.size(); ++i) {
        if (seconds[i] <= slack) {
            return ladder[i];
        }
    }
    return ladder.back();
}

} // namespace vepro::serve
