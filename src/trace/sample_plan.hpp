#ifndef VEPRO_TRACE_SAMPLE_PLAN_HPP
#define VEPRO_TRACE_SAMPLE_PLAN_HPP

/**
 * @file
 * The op stream's sampling rule: which dynamic-op positions the probe
 * records for the core model, and how many it keeps at most.
 */

#include <cstdint>
#include <limits>

namespace vepro::trace
{

/**
 * Which op positions are recorded: none (the default), all, or the
 * first window() ops of every interval(), each up to a cap() on the
 * recorded ops. The probe reads the plan as runs (runAt).
 */
class SamplePlan
{
  public:
    /** A run end that never comes, and the cap of an uncapped plan. */
    static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

    struct Run {
        uint64_t end;  ///< First position past the run (or kNever).
        bool record;   ///< Whether the run's positions are recorded.
    };

    /** Records nothing. */
    SamplePlan() = default;

    /** Records every op, up to @p cap. */
    static constexpr SamplePlan
    all(uint64_t cap = kNever)
    {
        return SamplePlan(1, 1, cap);
    }

    /** Records the first @p window ops of every @p interval, up to
     *  @p cap; @p window >= @p interval is all(@p cap), and a window
     *  of 0 records nothing. */
    static constexpr SamplePlan
    windows(uint64_t window, uint64_t interval, uint64_t cap = kNever)
    {
        return window >= interval ? all(cap)
               : window == 0      ? SamplePlan()
                                  : SamplePlan(window, interval, cap);
    }

    /** The longest stretch from @p at that the plan records, or skips,
     *  alike. Its end is kNever for the nothing and all plans. */
    constexpr Run
    runAt(uint64_t at) const
    {
        if (window_ == interval_ || window_ == 0) {
            return {kNever, window_ != 0};
        }
        const uint64_t base = at - at % interval_;
        return at - base < window_ ? Run{base + window_, true}
                                   : Run{base + interval_, false};
    }

    // The plan's parameters, for the per-call reference probe and the
    // fuzzer: all() is a 1-op window every op, and the default plan a
    // 0-op window with a 0 cap.
    constexpr uint64_t window() const { return window_; }
    constexpr uint64_t interval() const { return interval_; }
    constexpr uint64_t cap() const { return cap_; }

    bool operator==(const SamplePlan &) const = default;

  private:
    constexpr SamplePlan(uint64_t window, uint64_t interval, uint64_t cap)
        : window_(window), interval_(interval), cap_(cap)
    {
    }

    uint64_t window_ = 0;
    uint64_t interval_ = 1;
    uint64_t cap_ = 0;
};

} // namespace vepro::trace

#endif // VEPRO_TRACE_SAMPLE_PLAN_HPP
