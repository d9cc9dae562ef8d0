/**
 * @file
 * Enum-indexed event counters for the simulator components.
 *
 * Each component (DiffMem tile, NoC, Controller tile) declares one
 * `enum class` of its counters and one `constexpr` table of their
 * registry names, static_assert'd to the same size. During simulation
 * the hot path only adds to a fixed array slot; counters become
 * strings once, at report time, when the component writes them into
 * the run's StatRegistry under its prefix.
 */

#ifndef MANNA_SIM_COUNTERS_HH
#define MANNA_SIM_COUNTERS_HH

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>

#include "common/stat_registry.hh"

namespace manna::sim
{

/** A fixed array of double counters indexed by the enum @p Key. */
template <typename Key, std::size_t N>
struct Counters
{
    double values[N] = {};

    double &operator[](Key k)
    {
        return values[static_cast<std::size_t>(k)];
    }
    double operator[](Key k) const
    {
        return values[static_cast<std::size_t>(k)];
    }

    /** Zero every counter. */
    void clear()
    {
        std::fill(std::begin(values), std::end(values), 0.0);
    }

    /** Write counters [first, last) into @p reg as
     * "<prefix>.<names[i]>", overwriting existing entries. */
    void exportTo(StatRegistry &reg, const std::string &prefix,
                  const char *const (&names)[N], std::size_t first = 0,
                  std::size_t last = N) const
    {
        for (std::size_t i = first; i < last; ++i)
            reg.set(prefix + "." + names[i], values[i]);
    }
};

} // namespace manna::sim

#endif // MANNA_SIM_COUNTERS_HH
