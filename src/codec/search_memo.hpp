#ifndef VEPRO_CODEC_SEARCH_MEMO_HPP
#define VEPRO_CODEC_SEARCH_MEMO_HPP

/**
 * @file
 * Memo of one pure search step within a superblock search.
 *
 * While FrameCodec searches a superblock, its source, reference,
 * reconstruction and MV field do not change, so a motion search or a
 * leaf evaluation with the same arguments returns the same result and
 * emits the same op counts every time it runs. The modeled encoder keeps
 * every re-evaluation: the probe still counts each one. Only the host
 * stops recomputing them, by applying the step's recorded
 * trace::QuietSpan in one commit.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "trace/probe.hpp"

namespace vepro::codec
{

/**
 * Flat open-addressing table from an N-int key to a step's value and
 * its span. Keys compare every field. Entries live in a dense array in
 * insertion order and the slots index it, so nothing is allocated per
 * entry, and clear() forgets everything in O(1) by bumping a generation.
 */
template <size_t N, typename Value>
class SearchMemo
{
  public:
    using Key = std::array<int, N>;

    /** Forget every entry (capacity is kept). */
    void
    clear()
    {
        entries_.clear();
        if (++gen_ == 0) {
            for (Slot &s : slots_) {
                s.gen = 0;
            }
            gen_ = 1;
        }
    }

    /**
     * Run the step @p step for @p key through the memo; returns its
     * value and whether it came from the memo without running.
     *
     * - A hit commits the stored span and returns the stored value. When
     *   the current probe cannot commit it (a recording window, an
     *   uncapped probe), the step runs again exactly as without the
     *   memo, so every recorded op comes from real emission. With no
     *   current probe a hit returns the stored value.
     * - A miss runs the step between a probe mark and the span since,
     *   then stores the value and the span.
     *
     * Entries belong to the current probe they were stored under; a
     * step under another probe, or none, starts the memo afresh. @p step
     * must be a pure function of @p key while the memo is not cleared,
     * and its emission must be a valid trace::QuietSpan.
     */
    template <typename Step>
    std::pair<Value, bool>
    run(const Key &key, Step &&step)
    {
        trace::Probe *probe = trace::currentProbe();
        if (probe != probe_) {
            clear();
            probe_ = probe;
        }
        if (const Entry *hit = find(key)) {
            if (!probe || probe->commitQuietSpan(hit->span.unpack())) {
                return {hit->value, true};
            }
            return {step(), false};
        }
        const trace::QuietSpan start =
            probe ? probe->mark() : trace::QuietSpan{};
        Value value = step();
        insert(key, value,
               probe ? probe->spanSince(start) : trace::QuietSpan{});
        return {value, false};
    }

  private:
    struct Slot {
        uint32_t gen = 0;  ///< Live when equal to gen_.
        uint32_t entry = 0;
        Key key{};
    };
    /** A trace::QuietSpan in half the bytes: a search step's counts fit
     *  32 bits (insert() skips a span whose total does not). */
    struct StoredSpan {
        static constexpr uint32_t kNoEntry =
            std::numeric_limits<uint32_t>::max();

        std::array<uint32_t, trace::kNumOpClasses> byClass;
        uint32_t total;
        uint32_t entryOffset;
        int32_t bodyLen;
        uint64_t site;

        explicit StoredSpan(const trace::QuietSpan &span)
            : total(static_cast<uint32_t>(span.total)),
              entryOffset(span.entryOffset == trace::QuietSpan::kNoEntry
                              ? kNoEntry
                              : static_cast<uint32_t>(span.entryOffset)),
              bodyLen(span.bodyLen), site(span.site)
        {
            for (size_t c = 0; c < byClass.size(); ++c) {
                byClass[c] = static_cast<uint32_t>(span.byClass[c]);
            }
        }

        trace::QuietSpan
        unpack() const
        {
            trace::QuietSpan span;
            for (size_t c = 0; c < byClass.size(); ++c) {
                span.byClass[c] = byClass[c];
            }
            span.total = total;
            span.site = site;
            span.entryOffset = entryOffset == kNoEntry
                                   ? trace::QuietSpan::kNoEntry
                                   : entryOffset;
            span.bodyLen = bodyLen;
            return span;
        }
    };
    struct Entry {
        Value value;
        StoredSpan span;
    };

    /** Past this many entries a superblock's new keys are not stored. */
    static constexpr size_t kMaxEntries = size_t{1} << 16;

    static uint64_t
    hash(const Key &key)
    {
        uint64_t h = 0;
        for (int v : key) {
            h = (h ^ static_cast<uint32_t>(v)) * 0x9e3779b97f4a7c15ULL;
        }
        return h ^ (h >> 32);
    }

    /** The slot holding @p key, or the free slot where it goes. */
    Slot &
    slotFor(const Key &key)
    {
        const size_t mask = slots_.size() - 1;
        for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.gen != gen_ || s.key == key) {
                return s;
            }
        }
    }

    const Entry *
    find(const Key &key)
    {
        if (slots_.empty()) {
            return nullptr;
        }
        const Slot &s = slotFor(key);
        return s.gen == gen_ ? &entries_[s.entry] : nullptr;
    }

    void
    insert(const Key &key, const Value &value, const trace::QuietSpan &span)
    {
        if (entries_.size() >= kMaxEntries ||
            span.total >= StoredSpan::kNoEntry) {
            return;
        }
        // Load stays at most 3/4, so probe runs stay short.
        if (4 * (entries_.size() + 1) > 3 * slots_.size()) {
            grow();
        }
        Slot &s = slotFor(key);
        s = {gen_, static_cast<uint32_t>(entries_.size()), key};
        entries_.push_back({value, StoredSpan(span)});
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 256 : 2 * old.size(), Slot{});
        for (const Slot &s : old) {
            if (s.gen == gen_) {
                slotFor(s.key) = s;
            }
        }
    }

    std::vector<Slot> slots_;  ///< Power-of-two size, linear probing.
    std::vector<Entry> entries_;
    uint32_t gen_ = 1;
    trace::Probe *probe_ = nullptr;
};

} // namespace vepro::codec

#endif // VEPRO_CODEC_SEARCH_MEMO_HPP
