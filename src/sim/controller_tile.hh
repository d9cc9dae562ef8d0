/**
 * @file
 * Timing/energy model of the Controller tile (Section 4.3): a
 * systolic-array DNN accelerator with weight and unified buffers.
 *
 * The paper simulates the controller with the performance simulator
 * from Bit-Fusion [32]; we substitute a standard weight-stationary
 * systolic timing model (tiled matrix-vector products over the
 * rows x cols array, with fill latency and buffer traffic). The
 * functional forward pass is executed by the Chip through the shared
 * mann::Controller implementation, so controller math is identical
 * to the golden model by construction.
 */

#ifndef MANNA_SIM_CONTROLLER_TILE_HH
#define MANNA_SIM_CONTROLLER_TILE_HH

#include <iterator>
#include <string>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "mann/mann_config.hh"
#include "sim/counters.hh"

namespace manna::sim
{

/** Cost of a unit of controller-tile work, with the work counts
 * behind it (all integer-valued, so sums of them stay exact). */
struct CtrlCost
{
    Cycle cycles = 0;
    Energy energyPj = 0.0;
    double denseLayers = 0.0;
    double arrayPasses = 0.0;
    double macs = 0.0;
    double activations = 0.0; ///< activation lanes

    CtrlCost &operator+=(const CtrlCost &o)
    {
        cycles += o.cycles;
        energyPj += o.energyPj;
        denseLayers += o.denseLayers;
        arrayPasses += o.arrayPasses;
        macs += o.macs;
        activations += o.activations;
        return *this;
    }
};

/** The Controller tile's work counters, exported as "ctrl.<name>". */
enum class CtrlCounter : std::size_t
{
    Cycles,
    DenseLayers,
    ArrayPasses,
    Macs,
    Activations,
    ForwardPasses,
    NumCounters,
};

constexpr std::size_t kNumCtrlCounters =
    static_cast<std::size_t>(CtrlCounter::NumCounters);

/** Registry name of every CtrlCounter, in enum order. */
constexpr const char *kCtrlCounterNames[] = {
    "cycles", "dense_layers", "array_passes",
    "macs",   "activations",  "forward_passes",
};
static_assert(std::size(kCtrlCounterNames) == kNumCtrlCounters,
              "one name per CtrlCounter");

/** Analytic systolic-array model. */
class ControllerTileModel
{
  public:
    ControllerTileModel(const arch::MannaConfig &cfg,
                        const arch::EnergyModel &energy);

    /**
     * One dense matrix-vector product of outDim x inDim (batch 1,
     * weight stationary): ceil(out/rows) x ceil(in/cols) array passes,
     * each streaming `cols` activations with a pipeline-fill latency.
     */
    CtrlCost denseLayer(std::size_t outDim, std::size_t inDim) const;

    /** Element-wise activation over n outputs (one lane per column). */
    CtrlCost activation(std::size_t n) const;

    /** Whole controller forward pass for one time step. */
    CtrlCost forwardCost(const mann::MannConfig &mc) const;

    /** Count one forward pass costing @p pass (from forwardCost()). */
    void recordForwardPass(const CtrlCost &pass);

    /** One work counter (forward passes, layer passes, macs, ...). */
    double counter(CtrlCounter k) const { return counters_[k]; }

    /** Write the counters into @p reg as "<prefix>.<name>", once a
     * forward pass has been recorded since construction. */
    void exportCounters(StatRegistry &reg,
                        const std::string &prefix) const;

    /** Zero all counters (chip reset); once recorded, they still
     * export, at zero. */
    void resetStats() { counters_.clear(); }

  private:
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    Counters<CtrlCounter, kNumCtrlCounters> counters_;
    bool recorded_ = false;
};

} // namespace manna::sim

#endif // MANNA_SIM_CONTROLLER_TILE_HH
