/**
 * @file
 * Top-level Manna chip simulator: DiffMem tiles + H-tree NoC +
 * Controller tile, executing a compiled MANN step-by-step.
 *
 * ChipCore is the one chip driver: it owns the tiles, NoC,
 * Controller-tile timing model and energy model, and runs the step
 * loop, the segment/communication scheduler, fast-mode calibration,
 * and report assembly for every compiled MANN. Chip (the
 * NTM) and DncChip (sim/dnc_chip.hh) are thin shells over it that
 * supply only their golden model, the state load and the gather
 * methods for validation.
 *
 * Each shell owns its own golden-model instance (constructed from the
 * same seed as the reference model, so weights are bit-identical) and
 * uses it for (i) loading weights and the memory image onto the tiles,
 * and (ii) the functional forward pass of the controller, whose timing
 * comes from the ControllerTileModel. Everything else — heads,
 * addressing, key similarity, soft read, soft write — executes
 * instruction-by-instruction on the DiffMem tile models, so the
 * chip's outputs validate the entire compiler + simulator stack
 * against the golden model.
 *
 * TimingChip is the third shell: the same step loop with no golden
 * model and no tensor data. Compiled programs have no data-dependent
 * control flow, so every cycle, stall, energy event and stats counter
 * depends only on (program, config), and its report() equals a Chip's
 * or DncChip's bit for bit (tests/test_sim_chip.cc, TimingOnly.*).
 * The sweep harness runs every job on it (harness::runCompiled).
 */

#ifndef MANNA_SIM_CHIP_HH
#define MANNA_SIM_CHIP_HH

#include <map>
#include <memory>
#include <vector>

#include "arch/energy_model.hh"
#include "common/cancel.hh"
#include "common/stat_registry.hh"
#include "compiler/compiled_model.hh"
#include "mann/ntm.hh"
#include "sim/controller_tile.hh"
#include "sim/fidelity.hh"
#include "sim/noc.hh"
#include "sim/tile.hh"

namespace manna::compiler
{
struct CompiledDnc;
} // namespace manna::compiler

namespace manna::sim
{

/** Per-kernel-group accounting for one run. */
struct GroupStats
{
    Cycle cycles = 0;
    Energy energyPj = 0.0;
};

/** Results of a simulated inference run. */
struct RunReport
{
    std::size_t steps = 0;
    Cycle totalCycles = 0;
    Seconds totalSeconds = 0.0;
    Energy dynamicEnergyPj = 0.0;
    Energy leakageEnergyPj = 0.0;
    Energy infrastructureEnergyPj = 0.0; ///< clock/control/periphery

    std::map<mann::KernelGroup, GroupStats> groups;

    /**
     * Average fraction of cycles each tile resource class was busy
     * ("emac", "sfu", "mat_dma", "vec_dma"), across all tiles over
     * the whole run.
     */
    std::map<std::string, double> resourceUtilization;

    /**
     * Hierarchical per-component counters under dotted paths:
     * "tile.<n>.<engine>.*", "noc.*", "ctrl.*", "chip.*". Populated
     * at report time; the full catalog is documented in
     * docs/OBSERVABILITY.md.
     */
    StatRegistry stats;

    Energy totalEnergyPj() const
    {
        return dynamicEnergyPj + leakageEnergyPj +
               infrastructureEnergyPj;
    }
    double totalEnergyJoules() const { return totalEnergyPj() * 1e-12; }

    /** Steps per joule (the paper's energy-efficiency metric). */
    double stepsPerJoule() const;

    /** Seconds per step. */
    double secondsPerStep() const;

    std::string render() const;
};

/**
 * Register human-readable descriptions (suffix patterns, see
 * StatRegistry::describe()) for every counter family a RunReport's
 * stats carry. Called at report time; exposed so aggregated registries
 * (sweep stats) can re-attach descriptions for --dump-stats.
 */
void describeRunStats(StatRegistry &reg);

/** Per-space functional storage sizes of a compiled layout. */
template <typename Layout>
TileLayoutSizes
tileSizesOf(const Layout &layout)
{
    return {layout.matBufWords, layout.matSpadWords, layout.vecBufWords,
            layout.vecSpadWords};
}

/**
 * The chip driver shared by every compiled MANN. A shell derives from
 * it, constructs its golden model (if any), and calls reset() from its
 * own constructor (reset() reaches the shell's loadState()).
 */
class ChipCore
{
  public:
    virtual ~ChipCore() = default;
    // The tiles hold references to energy_; a copy would share them.
    ChipCore(const ChipCore &) = delete;
    ChipCore &operator=(const ChipCore &) = delete;

    /** Reset memory, recurrent state, and all statistics. */
    void reset();

    /** Execute one time step; returns the controller output. Not on
     * a timing-only chip (TimingChip::run). */
    tensor::FVec step(const tensor::FVec &input);

    /** Run a sequence of inputs. */
    std::vector<tensor::FVec> run(const std::vector<tensor::FVec> &in);

    /** Accounting for everything since the last reset(). */
    RunReport report() const;

    /** Current read vectors (for validation against the golden). */
    const std::vector<tensor::FVec> &readVectors() const
    {
        return readVectors_;
    }

    const arch::MannaConfig &config() const { return arch_; }
    Fidelity fidelity() const { return fidelity_; }

    /** Attach an instruction tracer to every tile (nullptr detaches). */
    void attachTrace(TraceLogger *logger);

    /**
     * Attach a cooperative cancellation token (nullptr detaches). The
     * step loops poll it once per time step and once per
     * communication round; when it fires, the chip throws SimError so
     * a hung or runaway simulation unwinds cleanly instead of wedging
     * its worker thread.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

  protected:
    /**
     * @p shape is the MANN shape the Controller-tile cost model and
     * the analytic cycles/step estimate read. With Fidelity::Fast the
     * first kFastCalibrationSteps time steps run cycle-accurate and
     * the rest execute functionally; report() extrapolates (see
     * sim/fidelity.hh). Tensor results are bit-identical across
     * fidelities, and so are the reports of a functional and a
     * @p timingOnly chip.
     *
     * A timing-only chip runs every instruction's timing, stall,
     * energy and counter bookkeeping with no tensor math, on size-only
     * tile memories; its comms move no data, and in fast mode the
     * steps after the calibration prefix are only counted.
     */
    ChipCore(const arch::MannaConfig &arch, const TileLayoutSizes &sizes,
             const std::vector<compiler::CompiledSegment> &segments,
             const mann::MannConfig &shape, Fidelity fidelity,
             bool timingOnly = false);

    /** One time step of the tiles, NoC and Controller-tile timing;
     * step() runs the functional controller first. */
    void advance();

    /** The golden model's functional controller. */
    virtual mann::Controller &controller() = 0;

    /** Reset the golden model and write its initial state onto the
     * freshly zeroed tiles. */
    virtual void loadState() = 0;

    /** Write @p source's rows into the tiles' slices of @p part. */
    void loadPartition(const compiler::RowPartition &part,
                       const tensor::FMat &source);

    /** Reassemble the @p totalRows rows of @p part from the tiles. */
    tensor::FMat gatherPartition(const compiler::RowPartition &part,
                                 std::size_t totalRows) const;

    std::vector<std::unique_ptr<DiffMemTile>> tiles_;

  private:
    void runSegment(const compiler::CompiledSegment &segment);
    void runTilesToCompletion(
        const compiler::CompiledSegment &segment);
    void handleComm(const isa::Instruction &inst);
    void checkCancelled() const;
    /** The tiles' mode while they interpret instructions. */
    ExecMode interpretMode() const
    {
        return timingOnly_ ? ExecMode::TimingOnly
                           : ExecMode::TimingAndData;
    }
    /** report() body for the cycle-accurate counters (also the
     * calibration snapshots in fast mode). */
    RunReport cycleReport() const;
    /** After the calibration prefix, switch every tile to
     * functional-only execution (ExecMode::DataOnly): later steps
     * interpret the same instructions with no timing bookkeeping. */
    void activateFastMode();

    const arch::MannaConfig &arch_;
    const TileLayoutSizes sizes_;
    const std::vector<compiler::CompiledSegment> &segments_;
    const mann::MannConfig shape_;
    arch::EnergyModel energy_;
    Noc noc_;
    ControllerTileModel ctrlModel_;

    // Recurrent state held at the chip (controller side).
    std::vector<tensor::FVec> readVectors_;
    tensor::FVec pendingHidden_;
    Cycle controllerReady_ = 0;

    // NoC data in flight (result of the last Reduce) and its length,
    // which a timing-only chip tracks without the data.
    std::vector<float> nocBuffer_;
    std::size_t nocWords_ = 0;

    // Reusable hot-path buffers: per-tile operand staging for
    // reduces and the concatenated controller input. Steady-state
    // steps allocate nothing.
    std::vector<std::vector<float>> commStage_;
    tensor::FVec ctrlInput_;
    std::vector<Energy> tileEnergyBefore_;

    // Accounting.
    Cycle chipTime_ = 0;
    Energy nocEnergyPj_ = 0.0;
    Energy ctrlEnergyPj_ = 0.0;
    std::map<mann::KernelGroup, GroupStats> groups_;
    std::size_t steps_ = 0;

    // fidelity=fast calibration state: snapshots after the first and
    // second cycle-accurate steps; fastActive_ flips once both exist.
    Fidelity fidelity_ = Fidelity::Cycle;
    const bool timingOnly_;
    bool fastActive_ = false;
    RunReport calib1_;
    RunReport calib2_;

    const CancelToken *cancel_ = nullptr;
};

/**
 * The NTM-programmed Manna chip.
 */
class Chip : public ChipCore
{
  public:
    /**
     * Build a chip for a compiled model. @p seed must match the seed
     * of the golden Ntm the run is compared against. See ChipCore for
     * the fidelity semantics.
     */
    Chip(const compiler::CompiledModel &model, std::uint64_t seed = 1,
         Fidelity fidelity = Fidelity::Cycle);

    /** Reassemble the distributed external memory (validation). */
    tensor::FMat gatherMemory() const;

    const mann::MannConfig &mannConfig() const { return model_.mannCfg; }
    const compiler::CompiledModel &model() const { return model_; }

  private:
    mann::Controller &controller() override { return ntm_.controller(); }
    void loadState() override;

    const compiler::CompiledModel &model_;
    mann::Ntm ntm_; ///< weights + functional controller
};

/**
 * The timing-only chip: a compiled NTM or DNC on ChipCore with no
 * golden model and size-only tile memories. It yields the report of a
 * Chip or DncChip run for the same number of steps (any seed, any
 * inputs) but no outputs, read vectors or memory.
 */
class TimingChip : public ChipCore
{
  public:
    explicit TimingChip(const compiler::CompiledModel &model,
                        Fidelity fidelity = Fidelity::Cycle);
    /** Defined in dnc_chip.cc, next to the DNC's MANN shape. */
    explicit TimingChip(const compiler::CompiledDnc &model,
                        Fidelity fidelity = Fidelity::Cycle);

    /** Simulate @p steps more time steps. */
    void run(std::size_t steps);

  private:
    mann::Controller &controller() override;
    void loadState() override {} // no data to load
};

} // namespace manna::sim

#endif // MANNA_SIM_CHIP_HH
