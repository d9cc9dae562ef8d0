#include "dnc_chip.hh"

#include <algorithm>

namespace manna::sim
{

namespace
{

/** MANN-shaped view of a DNC config: the Controller-tile cost model
 * and the analytic cycles/step estimate read only its controller
 * fields, inputDim, outputDim, numReadHeads and the memory shape. */
mann::MannConfig
mannShapeOf(const mann::DncConfig &dc)
{
    mann::MannConfig mc;
    mc.memN = dc.memN;
    mc.memM = dc.memM;
    mc.controllerLayers = dc.controllerLayers;
    mc.controllerWidth = dc.controllerWidth;
    mc.controllerKind = dc.controllerKind;
    mc.inputDim = dc.inputDim;
    mc.outputDim = dc.outputDim;
    mc.numReadHeads = dc.numReadHeads;
    mc.numWriteHeads = 1;
    return mc;
}

} // namespace

TimingChip::TimingChip(const compiler::CompiledDnc &model,
                       Fidelity fidelity)
    : ChipCore(model.archCfg, tileSizesOf(model.layout),
               model.stepSegments, mannShapeOf(model.dncCfg), fidelity,
               /*timingOnly=*/true)
{
    reset();
}

DncChip::DncChip(const compiler::CompiledDnc &model, std::uint64_t seed,
                 Fidelity fidelity)
    : ChipCore(model.archCfg, tileSizesOf(model.layout),
               model.stepSegments, mannShapeOf(model.dncCfg), fidelity),
      model_(model), dnc_(model.dncCfg, seed)
{
    reset();
}

void
DncChip::loadState()
{
    // Memory image, link matrix (zeros at reset), interface weights.
    dnc_.reset();
    loadPartition(model_.layout.memory, dnc_.memory().matrix());
    loadPartition(model_.layout.interfaceW, dnc_.interfaceWeights());
    // Persistent vectors (usage, write weights, precedence, previous
    // read weights) all start at zero, which is the fresh
    // TileMemory's state already.
}

tensor::FMat
DncChip::gatherMemory() const
{
    return gatherPartition(model_.layout.memory, model_.dncCfg.memN);
}

tensor::FMat
DncChip::gatherLink() const
{
    return gatherPartition(model_.layout.link, model_.dncCfg.memN);
}

tensor::FVec
DncChip::gatherUsage() const
{
    tensor::FVec usage(model_.dncCfg.memN, 0.0f);
    const auto &mem = model_.layout.memory;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const std::uint32_t rows = mem.rowCount[t];
        if (rows == 0)
            continue;
        const auto slice = tiles_[t]->memory().readRange(
            isa::Space::VecBuf, model_.layout.usageBase, rows);
        std::copy(slice.begin(), slice.end(),
                  usage.begin() + mem.rowStart[t]);
    }
    return usage;
}

} // namespace manna::sim
