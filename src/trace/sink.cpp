#include "trace/sink.hpp"

#include <stdexcept>

namespace vepro::trace
{

void
replayBlock(const TraceBlock &block, TraceSink &sink)
{
    size_t delivered = 0;
    for (const TraceBlock::Event &ev : block.events) {
        if (ev.pos > delivered) {
            sink.onOps(block.ops.data() + delivered, ev.pos - delivered);
            delivered = ev.pos;
        }
        if (ev.kind == TraceBlock::Event::Branch) {
            sink.onBranch({ev.value, ev.taken});
        } else {
            sink.onKernel(ev.value);
        }
    }
    if (block.ops.size() > delivered) {
        sink.onOps(block.ops.data() + delivered,
                   block.ops.size() - delivered);
    }
}

void
BlockSink::requireOpen() const
{
    if (closed_) {
        throw std::logic_error("trace: record delivered after flush: " +
                               name_);
    }
}

void
BlockSink::onOp(const TraceOp &op)
{
    requireOpen();
    stage_.op(op, publisher());
}

void
BlockSink::onOps(const TraceOp *ops, size_t n)
{
    requireOpen();
    stage_.ops(ops, n, publisher());
}

void
BlockSink::onBranch(const BranchRecord &branch)
{
    requireOpen();
    stage_.event(TraceBlock::Event::Branch, branch.pc, branch.taken,
                 publisher());
}

void
BlockSink::onKernel(uint64_t site)
{
    requireOpen();
    stage_.event(TraceBlock::Event::Kernel, site, false, publisher());
}

void
BlockSink::onBlock(TraceBlock &&block)
{
    requireOpen();
    // Records staged before this block came first in program order.
    publishStage();
    if (!block.empty()) {
        take(std::move(block));
    }
}

void
BlockSink::publishStage()
{
    stage_.publishTo(publisher());
}

void
BlockSink::close()
{
    publishStage();
    closed_ = true;
}

} // namespace vepro::trace
