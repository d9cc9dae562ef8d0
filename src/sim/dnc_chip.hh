/**
 * @file
 * Manna chip running a compiled Differentiable Neural Computer.
 *
 * A shell over sim::ChipCore for the DNC-on-Manna programs produced
 * by compiler::compileDnc. The core drives the step exactly as for
 * the NTM; the one DNC-only exchange, the allocation free-list scan,
 * is carried by the program itself: the tiles reduce their usage
 * slices to the root (UsageToAllocation), the root applies
 * mann::dncAllocationFromUsage — the exact function the golden model
 * uses — and the result broadcasts back.
 */

#ifndef MANNA_SIM_DNC_CHIP_HH
#define MANNA_SIM_DNC_CHIP_HH

#include "compiler/dnc_codegen.hh"
#include "mann/dnc.hh"
#include "sim/chip.hh"

namespace manna::sim
{

/**
 * The DNC-programmed Manna chip.
 */
class DncChip : public ChipCore
{
  public:
    /** Same fidelity semantics as sim::Chip: Fidelity::Fast runs a
     * cycle-accurate calibration prefix, then functional-only steps
     * with the report extrapolated (bit-identical tensor results). */
    DncChip(const compiler::CompiledDnc &model, std::uint64_t seed = 1,
            Fidelity fidelity = Fidelity::Cycle);

    /** Reassemble distributed state for validation. */
    tensor::FMat gatherMemory() const;
    tensor::FMat gatherLink() const;
    tensor::FVec gatherUsage() const;

    const compiler::CompiledDnc &model() const { return model_; }

  private:
    mann::Controller &controller() override { return dnc_.controller(); }
    void loadState() override;

    const compiler::CompiledDnc &model_;
    mann::Dnc dnc_; ///< weights + functional controller
};

} // namespace manna::sim

#endif // MANNA_SIM_DNC_CHIP_HH
