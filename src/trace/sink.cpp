#include "trace/sink.hpp"

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

} // namespace vepro::trace
