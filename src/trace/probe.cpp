#include "trace/probe.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "core/fnv.hpp"

namespace vepro::trace
{

namespace
{

thread_local Probe *tls_probe = nullptr;

std::mutex &
siteRegistryMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<uint64_t, std::string> &
siteRegistry()
{
    static std::unordered_map<uint64_t, std::string> names;
    return names;
}

} // namespace

uint64_t
sitePc(std::string_view name)
{
    const uint64_t h = core::fnv1a64(name);
    // Canonical user-space text range, 1 KiB aligned so each site owns a
    // private code window.
    uint64_t pc = 0x400000ULL + ((h << 10) & 0x0000'7fff'ffff'fc00ULL);
    {
        std::lock_guard<std::mutex> lock(siteRegistryMutex());
        siteRegistry().emplace(pc, std::string(name));
    }
    return pc;
}

std::string
siteName(uint64_t pc)
{
    std::lock_guard<std::mutex> lock(siteRegistryMutex());
    auto it = siteRegistry().find(pc);
    return it != siteRegistry().end() ? it->second : "?";
}

ProbeConfig
ProbeConfig::streaming(bool branches)
{
    ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = std::numeric_limits<size_t>::max();
    // opWindow >= opInterval disables sampling: every op is recorded.
    pc.opWindow = pc.opInterval;
    pc.collectBranches = branches;
    pc.maxBranches = std::numeric_limits<size_t>::max();
    return pc;
}

uint64_t
MixCounters::total() const
{
    uint64_t sum = 0;
    for (uint64_t v : byClass) {
        sum += v;
    }
    return sum;
}

uint64_t
MixCounters::byCategory(MixCategory cat) const
{
    uint64_t sum = 0;
    for (int i = 0; i < kNumOpClasses; ++i) {
        if (categoryOf(static_cast<OpClass>(i)) == cat) {
            sum += byClass[i];
        }
    }
    return sum;
}

double
MixCounters::categoryPercent(MixCategory cat) const
{
    uint64_t t = total();
    if (t == 0) {
        return 0.0;
    }
    return 100.0 * static_cast<double>(byCategory(cat)) /
           static_cast<double>(t);
}

MixCounters &
MixCounters::operator+=(const MixCounters &other)
{
    for (int i = 0; i < kNumOpClasses; ++i) {
        byClass[i] += other.byClass[i];
    }
    return *this;
}

uint64_t
Probe::intervalPos(uint64_t at)
{
    uint64_t pos = at - interval_base_;
    if (pos >= config_.opInterval) {
        interval_base_ += pos - pos % config_.opInterval;
        pos %= config_.opInterval;
    }
    return pos;
}

uint64_t
Probe::advance(uint64_t n)
{
    const uint64_t start = opSeq_ - n;
    if (dropping_) {
        // Every fast-path call since the region opened ended inside the
        // window with the cap reached: all of their ops were dropped.
        dropped_ops_ += start - drop_from_;
        dropping_ = false;
    }
    if (!config_.collectOps) {
        return 0;
    }
    // opWindow >= opInterval means "record everything" (streaming mode);
    // otherwise only the window-prefix of each interval is recorded.
    uint64_t in_window = n;
    if (config_.opWindow < config_.opInterval) {
        const uint64_t pos = intervalPos(start);
        in_window = pos < config_.opWindow
                        ? std::min(n, config_.opWindow - pos)
                        : 0;
    }
    uint64_t room = config_.maxOps > ops_recorded_
                        ? config_.maxOps - ops_recorded_
                        : 0;
    uint64_t take = std::min(in_window, room);
    dropped_ops_ += in_window - take;
    return take;
}

void
Probe::openQuietRegion()
{
    const bool capped = ops_recorded_ >= config_.maxOps;
    uint64_t end = 0;  // empty: every call takes the slow path
    if (!config_.collectOps) {
        end = kNever;
    } else if (config_.opWindow >= config_.opInterval) {
        // Streaming: every op is in the window, so a capped probe drops
        // all of them from here on.
        if (capped) {
            end = kNever;
            dropping_ = true;
            drop_from_ = opSeq_;
        }
    } else {
        const uint64_t pos = intervalPos(opSeq_);
        if (pos >= config_.opWindow) {
            // Nothing records before the interval wraps. A call that
            // straddles the wrap is slow, and advance() records none of
            // the next window for it.
            end = quiet_fault_ ? kNever : interval_base_ + config_.opInterval;
        } else if (capped) {
            end = interval_base_ + config_.opWindow;
            dropping_ = true;
            drop_from_ = opSeq_;
        }
    }
    quiet_end_ = end;

    // Past the warmup, every branch-emitting call records or drops a
    // branch record, so it takes the slow path.
    uint64_t branch_end = kNever;
    if (config_.collectBranches && config_.branchWarmupOps != kNever) {
        branch_end = opSeq_ <= config_.branchWarmupOps
                         ? config_.branchWarmupOps + 1
                         : 0;
    }
    branch_quiet_end_ = std::min(quiet_end_, branch_end);
}

void
Probe::deliver(TraceBlock &&block)
{
    if (sink_ == nullptr) {
        throw std::logic_error(
            "trace: probe recorded ops or branches with no sink set");
    }
    sink_->onBlock(std::move(block));
}

void
Probe::flushToSink()
{
    stage_.publishTo(toSink());
}

void
Probe::stagePendingKernel()
{
    pending_site_valid_ = false;
    stage_.event(TraceBlock::Event::Kernel, pending_site_, false, toSink());
}

void
Probe::emitOp(const TraceOp &op)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    ++ops_recorded_;
    stage_.op(op, toSink());
}

void
Probe::emitOps(const TraceOp *ops, size_t n)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    ops_recorded_ += n;
    stage_.ops(ops, n, toSink());
}

void
Probe::emitBranch(uint64_t pc, bool taken)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    if (branches_recorded_ == 0) {
        branch_first_op_ = opSeq_;
    }
    branch_last_op_ = opSeq_;
    ++branches_recorded_;
    stage_.event(TraceBlock::Event::Branch, pc, taken, toSink());
}

uint64_t
Probe::nextPc()
{
    uint64_t pc = siteBase_ + 4ULL * sitePos_;
    if (++sitePos_ == static_cast<uint32_t>(siteBodyLen_)) {
        sitePos_ = 0;
    }
    return pc;
}

void
Probe::enterKernelSlow()
{
    if (advance(4) >= 2) {
        const TraceOp pair[2] = {
            {siteBase_, 0, OpClass::BranchUncond, true, 0, 0, false},
            {siteBase_ + 4, 0, OpClass::Other, false, 0, 0, false}};
        emitOps(pair, 2);
    }
    openQuietRegion();
}

void
Probe::opsSlow(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2)
{
    uint64_t take = advance(n);
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        stage_.op({nextPc(), 0, cls, false, dep1, dep2, false}, toSink());
    }
    openQuietRegion();
}

void
Probe::memSlow(OpClass cls, uint64_t addr, uint8_t dep1)
{
    if (advance(1) > 0) {
        emitOp({nextPc(), addr, cls, false, dep1, 0, false});
    }
    openQuietRegion();
}

void
Probe::memRunSlow(OpClass cls, uint64_t addr, int n, int stride, uint8_t dep1)
{
    uint64_t take = advance(static_cast<uint64_t>(n));
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        stage_.op({nextPc(), addr + static_cast<uint64_t>(i) * stride, cls,
                   false, dep1, 0, false},
                  toSink());
    }
    openQuietRegion();
}

void
Probe::decisionSlow(uint64_t site, bool taken)
{
    if (advance(1) > 0) {
        emitOp({site, 0, OpClass::BranchCond, taken, 1, 0, false});
    }
    if (config_.collectBranches && opSeq_ > config_.branchWarmupOps) {
        if (branches_recorded_ < config_.maxBranches) {
            emitBranch(site, taken);
        } else {
            ++dropped_branches_;
        }
    }
    openQuietRegion();
}

void
Probe::loopBranchesSlow(uint64_t iterations)
{
    if (iterations == 0) {
        return;
    }
    uint64_t loop_pc = siteBase_ + 4ULL * siteBodyLen_;
    uint64_t take = advance(iterations);
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        stage_.op({loop_pc, 0, OpClass::BranchCond, i + 1 < iterations, 1, 0,
                   false},
                  toSink());
    }
    if (config_.collectBranches && opSeq_ > config_.branchWarmupOps) {
        uint64_t room = config_.maxBranches > branches_recorded_
                            ? config_.maxBranches - branches_recorded_
                            : 0;
        uint64_t recorded = std::min(iterations, room);
        dropped_branches_ += iterations - recorded;
        for (uint64_t i = 0; i < recorded; ++i) {
            emitBranch(loop_pc, i + 1 < iterations);
        }
    }
    openQuietRegion();
}

uint64_t
Probe::allocRegion(size_t size)
{
    uint64_t base = nextRegion_;
    uint64_t span = (static_cast<uint64_t>(size) + 4095ULL) & ~4095ULL;
    nextRegion_ += span + 4096ULL;  // guard page between regions
    return base;
}

void
emitControl(Probe &probe, uint64_t site, int units, uint64_t hot_addr,
            uint64_t spread_addr, uint64_t spread_step)
{
    emitKernel(probe, site, 20, [&](auto &e) {
        for (int u = 0; u < units; ++u) {
            // Hot table lookups (cost LUTs), per-block metadata, stack slots.
            e.mem(OpClass::Load, hot_addr + (static_cast<uint64_t>(u) * 72) % 2048);
            e.mem(OpClass::Load, hot_addr + 2048 + (static_cast<uint64_t>(u) * 40) % 1024);
            e.mem(OpClass::Load, spread_addr + static_cast<uint64_t>(u) * spread_step);
            e.mem(OpClass::Load, site + 0x800 + (static_cast<uint64_t>(u) * 24) % 256);
            e.ops(OpClass::Alu, 1, 1, 2);
            if ((u & 1) != 0) {
                e.ops(OpClass::Other, 1, 1);
            }
            e.mem(OpClass::Store, spread_addr + static_cast<uint64_t>(u) * spread_step + 8, 1);
            e.mem(OpClass::Store, site + 0x800 + (static_cast<uint64_t>(u) * 24) % 256, 1);
        }
        e.loopBranches(static_cast<uint64_t>((units + 3) / 4));
    });
}

Probe *
currentProbe()
{
    return tls_probe;
}

ProbeScope::ProbeScope(Probe *probe) : saved_(tls_probe)
{
    tls_probe = probe;
}

ProbeScope::~ProbeScope()
{
    tls_probe = saved_;
}

} // namespace vepro::trace
