/**
 * @file
 * Summary statistics over a list of values (geometric and arithmetic
 * means, minimum, maximum), used by the experiment harness reports.
 */

#ifndef MANNA_COMMON_STATS_HH
#define MANNA_COMMON_STATS_HH

#include <vector>

namespace manna
{

/** Geometric mean of positive values; 0 on empty input. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 on empty input. */
double mean(const std::vector<double> &values);

/** Minimum / maximum (0 on empty input). */
double minOf(const std::vector<double> &values);
double maxOf(const std::vector<double> &values);

} // namespace manna

#endif // MANNA_COMMON_STATS_HH
