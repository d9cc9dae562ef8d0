/**
 * @file
 * fidelity=fast contract tests: fast runs must produce bit-identical
 * tensor state to cycle runs (outputs, read vectors, gathered memory)
 * on both chip models and on every Table 2 model — which exercises
 * the tiles' DataOnly interpretation and the chip's untimed comms
 * after calibration — while the extrapolated cycle counts stay within
 * the 5% tolerance gate and the report carries the same stats key set.
 * Every sweep bench must also honour the fidelity= knob.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "common/subprocess.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "sim/fidelity.hh"
#include "workloads/benchmarks.hh"

namespace manna::sim
{
namespace
{

using mann::DncConfig;
using mann::MannConfig;
using tensor::FVec;

// Enough steps that most of the run executes data-only (steps 1-2
// calibrate cycle-accurately; 3+ interpret with no timing).
constexpr std::size_t kSteps = 8;

MannConfig
ntmConfig()
{
    MannConfig cfg;
    cfg.memN = 64;
    cfg.memM = 32;
    cfg.numReadHeads = 2;
    cfg.numWriteHeads = 1;
    cfg.controllerLayers = 1;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

DncConfig
dncConfig()
{
    DncConfig cfg;
    cfg.memN = 48;
    cfg.memM = 24;
    cfg.numReadHeads = 2;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

std::vector<FVec>
inputs(std::size_t dim, std::size_t steps, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<FVec> in(steps, FVec(dim));
    for (auto &x : in)
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return in;
}

void
expectBitEqual(const FVec &a, const FVec &b, const char *what,
               std::size_t step)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t ba = 0;
        std::uint32_t bb = 0;
        std::memcpy(&ba, &a[i], 4);
        std::memcpy(&bb, &b[i], 4);
        ASSERT_EQ(ba, bb) << what << " diverges at step " << step
                          << " index " << i;
    }
}

template <typename ChipT, typename ModelT>
void
compareFidelities(const ModelT &model, std::size_t inputDim,
                  std::size_t readHeads, std::size_t steps = kSteps)
{
    ChipT cyc(model, /*seed=*/21, Fidelity::Cycle);
    ChipT fast(model, /*seed=*/21, Fidelity::Fast);
    const auto in = inputs(inputDim, steps, 99);

    for (std::size_t t = 0; t < steps; ++t) {
        const FVec outC = cyc.step(in[t]);
        const FVec outF = fast.step(in[t]);
        expectBitEqual(outC, outF, "output", t);
        for (std::size_t h = 0; h < readHeads; ++h)
            expectBitEqual(cyc.readVectors()[h], fast.readVectors()[h],
                           "readVector", t);
    }

    const auto memC = cyc.gatherMemory();
    const auto memF = fast.gatherMemory();
    ASSERT_EQ(memC.rows(), memF.rows());
    ASSERT_EQ(memC.cols(), memF.cols());
    for (std::size_t r = 0; r < memC.rows(); ++r)
        expectBitEqual(memC.row(r), memF.row(r), "memory", r);

    // Same stats catalog, fast marker set, cycle deviation <= 5%.
    const RunReport repC = cyc.report();
    const RunReport repF = fast.report();
    EXPECT_EQ(repC.steps, repF.steps);

    std::vector<std::string> keysC;
    std::vector<std::string> keysF;
    for (const auto &[k, v] : repC.stats.entries())
        keysC.push_back(k);
    for (const auto &[k, v] : repF.stats.entries())
        keysF.push_back(k);
    EXPECT_EQ(keysC, keysF);

    EXPECT_EQ(repC.stats.entries().at("fidelity.fast"), 0.0);
    EXPECT_EQ(repF.stats.entries().at("fidelity.fast"), 1.0);
    EXPECT_EQ(repF.stats.entries().at("fidelity.calibration_steps"),
              static_cast<double>(kFastCalibrationSteps));
    EXPECT_EQ(repF.stats.entries().at("fidelity.extrapolated_steps"),
              static_cast<double>(steps - kFastCalibrationSteps));

    ASSERT_GT(repC.totalCycles, 0u);
    const double dev =
        std::fabs(static_cast<double>(repF.totalCycles) -
                  static_cast<double>(repC.totalCycles)) /
        static_cast<double>(repC.totalCycles);
    EXPECT_LE(dev, 0.05) << "cycle=" << repC.totalCycles
                         << " fast=" << repF.totalCycles;
}

TEST(Fidelity, NtmChipFastBitIdenticalAndWithinTolerance)
{
    const auto mc = ntmConfig();
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    compareFidelities<Chip>(model, mc.inputDim, mc.numReadHeads);
}

TEST(Fidelity, DncChipFastBitIdenticalAndWithinTolerance)
{
    const auto dc = dncConfig();
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    compareFidelities<DncChip>(model, dc.inputDim, dc.numReadHeads);
}

TEST(Fidelity, Table2ModelsFastBitIdenticalAndWithinTolerance)
{
    // The real models at the paper's 16 tiles: one data-only step
    // after calibration covers every codegen path they use.
    for (const auto &bench : workloads::table2Suite()) {
        SCOPED_TRACE(bench.name);
        const auto &mc = bench.config;
        const auto model =
            compiler::compile(mc, arch::MannaConfig::withTiles(16));
        compareFidelities<Chip>(model, mc.inputDim, mc.numReadHeads,
                                kFastCalibrationSteps + 1);
        if (HasFatalFailure())
            return;
    }
}

TEST(Fidelity, FastResetReplaysCleanly)
{
    // A reset mid-run must leave fast mode and recalibrate; the
    // second run must be bit-identical to a fresh fast chip's.
    const auto mc = ntmConfig();
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    const auto in = inputs(mc.inputDim, kSteps, 7);

    Chip a(model, 21, Fidelity::Fast);
    for (const auto &x : in)
        a.step(x);
    a.reset();
    Chip b(model, 21, Fidelity::Fast);
    for (std::size_t t = 0; t < kSteps; ++t) {
        const FVec outA = a.step(in[t]);
        const FVec outB = b.step(in[t]);
        expectBitEqual(outA, outB, "post-reset output", t);
    }
}

TEST(Fidelity, ParseRoundTrip)
{
    EXPECT_EQ(parseFidelity("cycle"), Fidelity::Cycle);
    EXPECT_EQ(parseFidelity("FAST"), Fidelity::Fast);
    EXPECT_EQ(parseFidelity("quick"), std::nullopt);
    EXPECT_STREQ(toString(Fidelity::Cycle), "cycle");
    EXPECT_STREQ(toString(Fidelity::Fast), "fast");
    EXPECT_EQ(parseFidelity(toString(Fidelity::Fast)), Fidelity::Fast);
}

TEST(Fidelity, EverySweepBenchHonoursTheKnob)
{
    // A fast run extrapolates the steps after calibration; a bench
    // that dropped the knob would run them all cycle-accurately.
    for (const char *bench :
         {"tab2_benchmarks", "fig9_inference_performance",
          "fig10_kernel_speedup", "fig11_energy_efficiency",
          "fig12_strong_scaling", "fig13_weak_scaling", "fig14_ablation",
          "sec73_hbm_scaling"}) {
        SCOPED_TRACE(bench);
        const std::string stats =
            std::string("test_fidelity_") + bench + ".stats.json";
        const pid_t pid = spawnProcess(
            {std::string(MANNA_BENCH_DIR) + "/" + bench, "bench=copy",
             "steps=4", "jobs=1", "fidelity=fast", "stats=" + stats},
            "/dev/null", "/dev/null");
        ASSERT_GT(pid, 0);
        EXPECT_TRUE(waitProcess(pid).cleanExit(0));
        std::ifstream in(stats);
        std::stringstream text;
        text << in.rdbuf();
        const std::string key = "\"fidelity.extrapolated_steps\": ";
        const auto pos = text.str().find(key);
        ASSERT_NE(pos, std::string::npos) << text.str();
        EXPECT_GT(std::stoul(text.str().substr(pos + key.size())), 0u);
        std::remove(stats.c_str());
    }
}

} // namespace
} // namespace manna::sim
