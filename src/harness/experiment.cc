#include "experiment.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"

namespace manna::harness
{

MannaResult
runCompiled(const compiler::CompiledModel &model, std::size_t steps,
            const CancelToken *cancel, sim::TraceLogger *trace,
            sim::Fidelity fidelity)
{
    sim::TimingChip chip(model, fidelity);
    chip.setCancelToken(cancel);
    if (trace != nullptr)
        chip.attachTrace(trace);
    chip.run(steps);

    MannaResult result;
    result.report = chip.report();
    result.secondsPerStep = result.report.secondsPerStep();
    result.joulesPerStep =
        result.report.totalEnergyJoules() /
        static_cast<double>(std::max<std::size_t>(steps, 1));
    const double cyclePeriod = model.archCfg.cyclePeriodSec();
    for (const auto &[group, gs] : result.report.groups) {
        result.groupSeconds[group] =
            static_cast<double>(gs.cycles) * cyclePeriod /
            static_cast<double>(std::max<std::size_t>(steps, 1));
    }
    return result;
}

MannaResult
simulateManna(const workloads::Benchmark &benchmark,
              const arch::MannaConfig &config, std::size_t steps,
              sim::Fidelity fidelity)
{
    const auto model = compiler::compileCached(benchmark.config, config);
    for (const auto &w : model->warnings)
        debugLog("%s: %s", benchmark.name.c_str(), w.c_str());
    return runCompiled(*model, steps, nullptr, nullptr, fidelity);
}

BaselineResult
evaluateBaseline(const workloads::Benchmark &benchmark,
                 const baselines::PlatformModel &model)
{
    const mann::OpCounter counter(benchmark.config);
    BaselineResult result;
    result.step = model.stepCost(counter);
    result.secondsPerStep = result.step.seconds;
    result.joulesPerStep = result.step.joules;
    result.stats.set("baseline.seconds", result.step.seconds);
    result.stats.set("baseline.joules", result.step.joules);
    for (const auto &[group, cost] : result.step.groups) {
        std::string name = mann::toString(group);
        for (char &c : name)
            if (c == '-')
                c = '_';
        const std::string prefix = "baseline." + name;
        result.stats.set(prefix + ".seconds", cost.seconds);
        result.stats.set(prefix + ".joules", cost.joules);
        result.stats.set(prefix + ".utilization", cost.utilization);
    }
    return result;
}

const baselines::PlatformModel &
gpu1080Ti()
{
    static const baselines::PlatformModel model(
        baselines::pascal1080Ti(), /*perKernelLaunch=*/true);
    return model;
}

const baselines::PlatformModel &
gpu2080Ti()
{
    static const baselines::PlatformModel model(
        baselines::turing2080Ti(), /*perKernelLaunch=*/true);
    return model;
}

const baselines::PlatformModel &
cpuXeon()
{
    static const baselines::PlatformModel model(
        baselines::skylakeXeon(), /*perKernelLaunch=*/false);
    return model;
}

std::size_t
defaultSteps()
{
    if (const char *env = std::getenv("MANNA_STEPS")) {
        const auto v = parseInt(env);
        if (v && *v > 0)
            return static_cast<std::size_t>(*v);
        warn("ignoring invalid MANNA_STEPS='%s'", env);
    }
    return 12;
}

} // namespace manna::harness
