/**
 * @file
 * Reference probe: trace::Probe's emission accounting as a per-call
 * computation, the form it had before the quiet-region fast path.
 *
 * Every call adds its ops to the mix, advances the interval position by
 * wrap-on-compare, and works out on the spot how many of its ops the
 * sample plan's window admits and its cap keeps; the recording into
 * TraceBlocks is the probe's own, transcribed. check::Fuzzer's probe
 * target runs trace::Probe against this on random configs and call
 * sequences and demands identical counters after every call and an
 * identical delivered block stream.
 *
 * Do not "improve" this file for speed; its value is that every rule is
 * written in the most literal form possible.
 */

#include "check/oracle.hpp"

#include <algorithm>

namespace vepro::check
{

using trace::OpClass;
using trace::TraceBlock;
using trace::TraceOp;

RefProbe::RefProbe(const trace::ProbeConfig &config, trace::TraceSink &sink)
    : config_(config), sink_(sink)
{
    stage_.reserveStandard();
}

uint64_t
RefProbe::advance(uint64_t n)
{
    // The plan as its parameters, never as runs: the default plan is a
    // 0-op window and all() a 1-op window every op.
    const uint64_t window = config_.ops.window();
    const uint64_t interval = config_.ops.interval();
    uint64_t pos = interval_pos_;
    op_seq_ += n;
    interval_pos_ += n;
    if (interval_pos_ >= interval) {
        interval_pos_ %= interval;
    }
    uint64_t in_window =
        window >= interval
            ? n
            : (pos < window ? std::min(n, window - pos) : 0);
    uint64_t room = config_.ops.cap() > ops_recorded_
                        ? config_.ops.cap() - ops_recorded_
                        : 0;
    uint64_t take = std::min(in_window, room);
    dropped_ops_ += in_window - take;
    return take;
}

void
RefProbe::flushBlock()
{
    if (stage_.empty()) {
        return;
    }
    sink_.onBlock(std::move(stage_));
    stage_.clear();
    stage_.reserveStandard();
}

void
RefProbe::stagePendingKernel()
{
    pending_site_valid_ = false;
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Kernel;
    ev.value = pending_site_;
    stage_.events.push_back(ev);
    if (stage_.events.size() >= TraceBlock::kOps) {
        flushBlock();
    }
}

void
RefProbe::pushOp(const TraceOp &op)
{
    if (stage_.ops.size() == TraceBlock::kOps) {
        flushBlock();
    }
    stage_.ops.push_back(op);
}

void
RefProbe::emitOps(const TraceOp *ops, size_t n)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    ops_recorded_ += n;
    for (size_t i = 0; i < n; ++i) {
        pushOp(ops[i]);
    }
}

void
RefProbe::emitBranch(uint64_t pc, bool taken)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    if (branches_recorded_ == 0) {
        branch_first_op_ = op_seq_;
    }
    branch_last_op_ = op_seq_;
    ++branches_recorded_;
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Branch;
    ev.taken = taken;
    ev.value = pc;
    stage_.events.push_back(ev);
    if (stage_.events.size() >= TraceBlock::kOps) {
        flushBlock();
    }
}

uint64_t
RefProbe::nextPc()
{
    uint64_t pc = site_base_ + 4ULL * site_pos_;
    if (++site_pos_ == static_cast<uint32_t>(site_body_len_)) {
        site_pos_ = 0;
    }
    return pc;
}

void
RefProbe::enterKernel(uint64_t site, int body_len)
{
    // The probe always streams to a sink here, so every entry defers a
    // kernel event until a record lands under it.
    pending_site_ = site;
    pending_site_valid_ = true;
    site_base_ = site + ((op_seq_ >> 6) & 7) * 1024;
    site_body_len_ = std::max(1, body_len);
    site_pos_ = 0;
    mix_.byClass[static_cast<int>(OpClass::BranchUncond)] += 2;
    mix_.byClass[static_cast<int>(OpClass::Other)] += 2;
    // A take of 1 records nothing: the call pair goes whole or not at all.
    if (advance(4) >= 2) {
        const TraceOp pair[2] = {
            {site_base_, 0, OpClass::BranchUncond, true, 0, 0, false},
            {site_base_ + 4, 0, OpClass::Other, false, 0, 0, false}};
        emitOps(pair, 2);
    }
}

void
RefProbe::ops(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2)
{
    mix_.byClass[static_cast<int>(cls)] += n;
    uint64_t take = advance(n);
    // Batched ops do not stage a pending kernel event.
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        pushOp({nextPc(), 0, cls, false, dep1, dep2, false});
    }
}

void
RefProbe::mem(OpClass cls, uint64_t addr, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += 1;
    if (advance(1) > 0) {
        const TraceOp op{nextPc(), addr, cls, false, dep1, 0, false};
        emitOps(&op, 1);
    }
}

void
RefProbe::memRun(OpClass cls, uint64_t addr, int n, int stride, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += static_cast<uint64_t>(n);
    uint64_t take = advance(static_cast<uint64_t>(n));
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        pushOp({nextPc(), addr + i * static_cast<uint64_t>(stride), cls,
                false, dep1, 0, false});
    }
}

void
RefProbe::decision(uint64_t site, bool taken)
{
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += 1;
    if (advance(1) > 0) {
        const TraceOp op{site, 0, OpClass::BranchCond, taken, 1, 0, false};
        emitOps(&op, 1);
    }
    if (config_.collectBranches && op_seq_ > config_.branchWarmupOps) {
        if (branches_recorded_ < config_.maxBranches) {
            emitBranch(site, taken);
        } else {
            ++dropped_branches_;
        }
    }
}

void
RefProbe::loopBranches(uint64_t iterations)
{
    if (iterations == 0) {
        return;
    }
    uint64_t loop_pc = site_base_ + 4ULL * site_body_len_;
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += iterations;
    uint64_t take = advance(iterations);
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        pushOp({loop_pc, 0, OpClass::BranchCond, i + 1 < iterations, 1, 0,
                false});
    }
    if (config_.collectBranches && op_seq_ > config_.branchWarmupOps) {
        uint64_t room = config_.maxBranches > branches_recorded_
                            ? config_.maxBranches - branches_recorded_
                            : 0;
        uint64_t recorded = std::min(iterations, room);
        dropped_branches_ += iterations - recorded;
        for (uint64_t i = 0; i < recorded; ++i) {
            emitBranch(loop_pc, i + 1 < iterations);
        }
    }
}

} // namespace vepro::check
