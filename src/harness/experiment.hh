/**
 * @file
 * Experiment harness: runs a benchmark on the Manna simulator and on
 * the baseline platform models, producing per-step time and energy
 * with per-kernel-group breakdowns. Every bench/ binary drives its
 * table or figure through this module so methodology is identical
 * across experiments.
 */

#ifndef MANNA_HARNESS_EXPERIMENT_HH
#define MANNA_HARNESS_EXPERIMENT_HH

#include <map>
#include <string>

#include "baselines/platform_model.hh"
#include "common/cancel.hh"
#include "compiler/compiled_model.hh"
#include "sim/chip.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{

/** Per-step result of a Manna simulation. */
struct MannaResult
{
    sim::RunReport report;
    double secondsPerStep = 0.0;
    double joulesPerStep = 0.0;
    std::map<mann::KernelGroup, double> groupSeconds; ///< per step
};

/** Per-step result of a baseline platform model. */
struct BaselineResult
{
    baselines::PlatformStepCost step;
    double secondsPerStep = 0.0;
    double joulesPerStep = 0.0;

    /**
     * The same cost data as a registry, so baseline-vs-Manna views
     * (fig2) read one uniform counter interface:
     * "baseline.seconds"/"baseline.joules" plus
     * "baseline.<group>.{seconds,joules,utilization}" per kernel
     * group (group names with dashes mapped to underscores, e.g.
     * "baseline.key_similarity.seconds").
     */
    StatRegistry stats;
};

/**
 * Simulate @p steps time steps of a benchmark on the given Manna
 * configuration (runCompiled() on the compiled benchmark).
 * Compilation goes through the process-wide compile cache.
 */
MannaResult simulateManna(const workloads::Benchmark &benchmark,
                          const arch::MannaConfig &config,
                          std::size_t steps,
                          sim::Fidelity fidelity = sim::Fidelity::Cycle);

/**
 * Simulation phase of simulateManna() for an already-compiled model:
 * pure and log-free, so sweep workers can run it concurrently
 * (capacity warnings stay on the model for the caller to report).
 *
 * The run is timing-only (sim::TimingChip): no golden model, no tile
 * storage and no tensor math. Its report equals that
 * of a functional sim::Chip run of the same steps under any seed and
 * inputs, because compiled programs have no data-dependent control
 * flow. Per-step outputs, read vectors and gathered memory need a
 * sim::Chip.
 *
 * @p cancel, when non-null, is polled cooperatively by the chip; a
 * fired token makes the simulation throw SimError (used by the sweep
 * runner's per-job watchdog). A token that never fires has no effect
 * on results.
 *
 * @p trace, when non-null, is attached to every tile for the run and
 * records each executed instruction (see sim::TraceLogger and
 * docs/OBSERVABILITY.md); it has no effect on results or timing.
 *
 * @p fidelity selects cycle-accurate or calibrated-fast timing
 * (sim/fidelity.hh).
 */
MannaResult runCompiled(const compiler::CompiledModel &model,
                        std::size_t steps,
                        const CancelToken *cancel = nullptr,
                        sim::TraceLogger *trace = nullptr,
                        sim::Fidelity fidelity = sim::Fidelity::Cycle);

/** Evaluate a benchmark on a baseline platform model. */
BaselineResult evaluateBaseline(const workloads::Benchmark &benchmark,
                                const baselines::PlatformModel &model);

/** GPU and CPU models used across the experiments. */
const baselines::PlatformModel &gpu1080Ti();
const baselines::PlatformModel &gpu2080Ti();
const baselines::PlatformModel &cpuXeon();

/**
 * Default step count for the simulated experiments (enough for
 * steady-state per-step metrics while keeping the full suite fast).
 * Override with the MANNA_STEPS environment variable.
 */
std::size_t defaultSteps();

} // namespace manna::harness

#endif // MANNA_HARNESS_EXPERIMENT_HH
