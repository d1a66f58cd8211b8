#ifndef VEPRO_TESTS_PRINT_RESULTS_HPP
#define VEPRO_TESTS_PRINT_RESULTS_HPP

/**
 * @file
 * GoogleTest printers for the two result structs, so EXPECT_EQ on a
 * CoreStats or an EncodeSummary names every field (in the record's
 * spelling) instead of dumping bytes. Both walk the structs' own
 * forEachField lists.
 */

#include <cstdint>
#include <ostream>
#include <type_traits>

#include "lab/store.hpp"
#include "uarch/core.hpp"

namespace vepro::test
{

/** A number, or a list: the makespan vector or the mix's array. */
template <class V>
void
printField(const V &v, std::ostream *os)
{
    if constexpr (std::is_arithmetic_v<V>) {
        *os << v;
    } else {
        const char *sep = "[";
        for (uint64_t item : v) {
            *os << sep << item;
            sep = ", ";
        }
        *os << (v.empty() ? "[]" : "]");
    }
}

template <class T>
void
printFields(const T &s, std::ostream *os)
{
    const auto precision = os->precision(17);  // doubles round-trip
    const char *sep = "{";
    T::forEachField(
        [&](const char *name, const auto &v) {
            *os << sep << name << '=';
            printField(v, os);
            sep = ", ";
        },
        s);
    *os << '}';
    os->precision(precision);
}

} // namespace vepro::test

namespace vepro::uarch
{
inline void
PrintTo(const CoreStats &s, std::ostream *os)
{
    test::printFields(s, os);
}
} // namespace vepro::uarch

namespace vepro::lab
{
inline void
PrintTo(const EncodeSummary &s, std::ostream *os)
{
    test::printFields(s, os);
}
} // namespace vepro::lab

#endif // VEPRO_TESTS_PRINT_RESULTS_HPP
