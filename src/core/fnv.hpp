#ifndef VEPRO_CORE_FNV_HPP
#define VEPRO_CORE_FNV_HPP

/**
 * @file
 * FNV-1a 64, the repository's one byte-string hash: synthetic site PCs,
 * TraceFile checksums, lab store and trace-cache keys, and suite clip
 * seeds are all this function, so every one of them is stable across
 * runs, builds and machines.
 */

#include <cstdint>
#include <string_view>

namespace vepro::core
{

/** The FNV-1a 64 offset basis: the hash of no bytes. */
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/**
 * FNV-1a 64 of @p bytes, continuing from @p hash: pass a previous
 * result to hash several buffers as one byte string.
 */
inline uint64_t
fnv1a64(std::string_view bytes, uint64_t hash = kFnv1a64Basis)
{
    for (char c : bytes) {
        hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    }
    return hash;
}

} // namespace vepro::core

#endif // VEPRO_CORE_FNV_HPP
