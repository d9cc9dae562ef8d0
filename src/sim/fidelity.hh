/**
 * @file
 * Execution-fidelity selection for the chip simulators.
 *
 * fidelity=cycle is the default: every instruction is timed against
 * the resource timelines (the per-cycle accounting in tile.cc).
 *
 * fidelity=fast computes exact tensor results through the same
 * compiled program but replaces the per-instruction timing loop with
 * a calibrated analytic model: the first kFastCalibrationSteps time
 * steps run with full cycle accounting, and because every instruction
 * duration in the timing model depends only on static operand shapes
 * (never on data values), the per-step cost reaches a steady state
 * immediately. The remaining steps run the same interpreter with the
 * tiles in ExecMode::DataOnly (sim/tile.hh): tensor math and comm
 * data movement only, no timelines, stalls, energy or counters (a
 * timing-only chip just counts them). The final RunReport
 * extrapolates every counter linearly from the calibration delta and
 * carries the same stats key set as cycle mode plus fidelity.*
 * markers, including an op_counter-derived peak-rate estimate
 * (fidelity.analytic_cycles_per_step, emitted in both fidelities) for
 * cross-checking the calibration against the pure analytic model.
 */

#ifndef MANNA_SIM_FIDELITY_HH
#define MANNA_SIM_FIDELITY_HH

#include <cstddef>
#include <optional>
#include <string_view>

#include "arch/manna_config.hh"
#include "mann/op_counter.hh"

namespace manna::sim
{

struct RunReport;

/** How a chip run charges time: per-cycle or calibrated-analytic. */
enum class Fidelity
{
    Cycle,
    Fast,
};

/** "cycle" or "fast". */
const char *toString(Fidelity f);

/** Parse "cycle"/"fast" (case-insensitive); nullopt otherwise. */
std::optional<Fidelity> parseFidelity(std::string_view text);

/**
 * Fidelity from the MANNA_FIDELITY environment variable; Cycle when
 * unset or (with a warning) unparseable.
 */
Fidelity defaultFidelity();

/**
 * Cycle-accurate steps executed before fast mode switches the tiles
 * to functional-only execution. Two snapshots bound the steady-state
 * per-step delta; step 1 additionally absorbs any cold-start effects
 * (empty double-buffer halves) so the delta is taken between warmed
 * steps.
 */
inline constexpr std::size_t kFastCalibrationSteps = 2;

/**
 * Linear extrapolation of a run to @p steps time steps from two
 * cycle-accurate calibration snapshots taken after consecutive steps
 * (r1.steps + 1 == r2.steps, steps >= r2.steps). Every energy term,
 * kernel-group tally, and stats counter is extended by
 * (r2 - r1) * (steps - r2.steps); ratio-valued keys (chip.util.*,
 * resourceUtilization) are recomputed from the extrapolated counters.
 * Because the per-engine closure (busy + stalls == total) holds at
 * both snapshots, it holds exactly for the extrapolated counters too.
 */
RunReport extrapolateRunReport(const RunReport &r1, const RunReport &r2,
                               std::size_t steps);

/**
 * Pure analytic cycles-per-step estimate from the op-counter work
 * model and the architecture's peak rates (eMAC lanes, serial SFU
 * throughput, DMA width) plus an H-tree hop term per kernel barrier.
 * Informational: emitted as fidelity.analytic_cycles_per_step.
 */
double analyticCyclesPerStep(const mann::MannConfig &mc,
                             const arch::MannaConfig &ac);

/**
 * Stamp the fidelity.* marker keys onto a report. Both fidelities
 * emit the same key set; @p calibrated is the number of
 * cycle-accurate steps actually run and @p extrapolated the number of
 * functional-only steps covered by extrapolation (both 0 in cycle
 * mode).
 */
void markFidelity(RunReport &rep, Fidelity f, std::size_t calibrated,
                  std::size_t extrapolated, double analyticPerStep);

} // namespace manna::sim

#endif // MANNA_SIM_FIDELITY_HH
