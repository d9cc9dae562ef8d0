/**
 * @file
 * Paper-figure sweep benchmark (driven by perfbench/run.py; see
 * BENCHMARK.json for the workloads and metrics).
 *
 * Untraced mode measures what a user of the bench binaries waits for:
 * each workload's SweepJob list goes through SweepRunner::runChecked,
 * the path every bench/ binary takes (in-process, or through a freshly
 * spawned mannad via server=). Traced mode additionally runs the same
 * jobs through SweepRunner::runIsolated with this file's own job
 * function, which calls compileCached and then the public layer
 * functions runCompiled calls, in the same order, and records a
 * host-time span around each call.
 *
 * Every simulated RunReport is checked against a committed reference
 * (perfbench/reference/), every traced report against its untraced
 * twin, and in traced mode every chip's outputs, read vectors and
 * memory against a golden mann::Ntm.
 *
 * Usage: perfbench workload=NAME seed=N mode=MODE [seconds=S]
 *        mannad=PATH ref_dir=DIR out_dir=DIR
 * where MODE is setup (the set-up passes), sweep (sweeps for S
 * seconds), trace (one untraced and one traced sweep, per-layer
 * metrics) or write_ref (rewrite the workload's reference file).
 * Prints one JSON object on stdout: correctness counters, a flat
 * {metric: value} map and, for each timing's .tail, its percentile and
 * sample count; units live in BENCHMARK.json.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "common/subprocess.hh"
#include "compiler/compile_cache.hh"
#include "harness/client.hh"
#include "harness/sweep.hh"
#include "mann/ntm.hh"
#include "mann/op_counter.hh"
#include "sim/chip.hh"
#include "tensor/dispatch.hh"
#include "workloads/benchmarks.hh"
#include "workloads/tasks.hh"

using namespace manna;
using Clock = std::chrono::steady_clock;

namespace
{

// ---------------------------------------------------------------- util

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** VmHWM (peak resident set) of @p pid in KiB; 0 when unreadable. */
double
peakRssKb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    return 0.0;
}

/** Exact digest of everything a job returns: every RunReport field
 * and the derived per-step figures. */
std::uint64_t
digestResult(const harness::MannaResult &r)
{
    const sim::RunReport &rep = r.report;
    Fnv1a h;
    h.u64(rep.steps).u64(rep.totalCycles).f64(rep.totalSeconds);
    h.f64(rep.dynamicEnergyPj).f64(rep.leakageEnergyPj);
    h.f64(rep.infrastructureEnergyPj);
    for (const auto &[group, gs] : rep.groups)
        h.u64(static_cast<std::uint64_t>(group)).u64(gs.cycles).f64(
            gs.energyPj);
    for (const auto &[name, v] : rep.resourceUtilization)
        h.bytes(name.data(), name.size()).f64(v);
    for (const auto &[name, v] : rep.stats.entries())
        h.bytes(name.data(), name.size()).f64(v);
    h.f64(r.secondsPerStep).f64(r.joulesPerStep);
    for (const auto &[group, s] : r.groupSeconds)
        h.u64(static_cast<std::uint64_t>(group)).f64(s);
    return h.value();
}

/** Digest of the stats registry alone (the reference's third field). */
std::uint64_t
digestStats(const StatRegistry &stats)
{
    Fnv1a h;
    for (const auto &[name, v] : stats.entries())
        h.bytes(name.data(), name.size()).f64(v);
    return h.value();
}

// ----------------------------------------------------------- workloads

struct Workload
{
    std::string name;
    bool fig12 = false; ///< Fig 12 grid, else the Table 2 suite at 16T
    sim::Fidelity fidelity = sim::Fidelity::Cycle;
    std::size_t steps = 1;
    std::size_t workers = 1;
    bool remote = false;
    /** Set-up passes per untraced run (setup_s is their median). */
    std::size_t setupReps = 3;
};

/** The workloads of BENCHMARK.json (reasons in perfbench/README.md).
 * One sweep takes 4-12 s on a 4-core host, so a 15 s window holds
 * two to four sweeps. tab2_fast's 40 steps make tape replay most of
 * its host time. */
const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> w = {
        {"tab2_cycle", false, sim::Fidelity::Cycle, 2, 1, false, 3},
        {"tab2_fast", false, sim::Fidelity::Fast, 40, 1, false, 3},
        {"fig12_sweep", true, sim::Fidelity::Fast, 4, 4, false, 3},
        {"fig12_remote", true, sim::Fidelity::Fast, 4, 4, true, 25},
    };
    return w;
}

std::vector<harness::SweepJob>
makeJobs(const Workload &w, std::uint64_t seed)
{
    std::vector<harness::SweepJob> jobs;
    for (const auto &bench : workloads::table2Suite()) {
        if (!w.fig12) {
            jobs.push_back({bench, arch::MannaConfig::baseline16(),
                            w.steps, seed, w.fidelity});
            continue;
        }
        for (std::size_t tiles : {4, 8, 16, 32, 64})
            if (bench.config.memN >= tiles)
                jobs.push_back({bench,
                                arch::MannaConfig::withTiles(tiles),
                                w.steps, seed, w.fidelity});
    }
    return jobs;
}

/** Reference file of a (grid, fidelity, steps) point: fig12_remote
 * shares fig12_sweep's, so remote results must be bit-identical to
 * in-process ones. */
std::string
referencePath(const std::string &dir, const Workload &w)
{
    return strformat("%s/%s_%s_steps%zu.txt", dir.c_str(),
                     w.fig12 ? "fig12" : "tab2",
                     sim::toString(w.fidelity), w.steps);
}

/** Seed-independent reference key: simulated timing, energy and
 * counters do not depend on data, only on (model, config, steps). */
std::string
refKey(const harness::SweepJob &job)
{
    return strformat("%s@%zu", job.benchmark.name.c_str(),
                     job.config.numTiles);
}

struct RefEntry
{
    std::uint64_t cycles = 0;
    double energyPj = 0.0;
    std::uint64_t statsDigest = 0;
    std::size_t statsKeys = 0;
};

std::string
refLine(const std::string &label, const harness::MannaResult &r)
{
    return strformat("%s %llu %a %016llx %zu\n", label.c_str(),
                     static_cast<unsigned long long>(
                         r.report.totalCycles),
                     r.report.totalEnergyPj(),
                     static_cast<unsigned long long>(
                         digestStats(r.report.stats)),
                     r.report.stats.size());
}

std::map<std::string, RefEntry>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw IoError("missing reference file " + path);
    std::map<std::string, RefEntry> ref;
    std::string label, energy, digest;
    RefEntry e;
    while (in >> label >> e.cycles >> energy >> digest >> e.statsKeys) {
        e.energyPj = std::strtod(energy.c_str(), nullptr);
        e.statsDigest = std::stoull(digest, nullptr, 16);
        ref[label] = e;
    }
    return ref;
}

// ------------------------------------------------------------- results

/** Everything the run measured and checked; rendered as JSON. */
struct Results
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, double> metrics;
    /** Percentile and sample count of each .tail metric; printed next
     * to it, not metrics of their own. */
    std::map<std::string, std::pair<double, std::size_t>> tails;

    void fail(const std::string &why)
    {
        if (errors.size() < 20)
            errors.push_back(why);
    }

    /** Timing summary: .p50 and .tail, where .tail is the highest
     * percentile with at least ten samples beyond it (the median when
     * there are fewer than twenty samples). */
    void timing(const std::string &name, const std::vector<double> &v)
    {
        const double n = static_cast<double>(v.size());
        const double pct =
            std::max(50.0, std::floor(1000.0 * (n - 10.0) / n) / 10.0);
        metrics[name + ".p50"] = median(v);
        metrics[name + ".tail"] = percentile(v, pct);
        tails[name + ".tail"] = {v.empty() ? 0.0 : pct, v.size()};
    }
};

/** Check one untraced outcome against the reference. */
void
checkOutcome(Results &res, const harness::SweepJob &job,
             const harness::JobOutcome &o,
             const std::map<std::string, RefEntry> &ref)
{
    ++res.attempted;
    const std::string label = job.label();
    bool ok = o.ok;
    if (!o.ok) {
        res.fail(label + ": " + o.error.describe());
    } else {
        const auto it = ref.find(refKey(job));
        const sim::RunReport &rep = o.value.report;
        if (it == ref.end()) {
            res.fail(label + ": no reference entry");
            ok = false;
        } else if (it->second.cycles != rep.totalCycles ||
                   it->second.energyPj != rep.totalEnergyPj() ||
                   it->second.statsDigest != digestStats(rep.stats) ||
                   it->second.statsKeys != rep.stats.size()) {
            res.fail(strformat(
                "%s: cycles %llu energy %a differ from reference "
                "(cycles %llu energy %a) or stats changed",
                label.c_str(),
                static_cast<unsigned long long>(rep.totalCycles),
                rep.totalEnergyPj(),
                static_cast<unsigned long long>(it->second.cycles),
                it->second.energyPj));
            ok = false;
        }
    }
    if (!ok)
        ++res.failed;
}

// -------------------------------------------------------------- daemon

/** A freshly spawned mannad, shut down and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &sockPath,
           std::size_t pool)
        : address_("unix:" + sockPath), sockPath_(sockPath)
    {
        ::unlink(sockPath_.c_str());
        const auto t0 = Clock::now();
        pid_ = spawnProcess({binary, "server=" + address_,
                             strformat("pool=%zu", pool)},
                            "/dev/null", "");
        if (pid_ <= 0)
            throw IoError("cannot spawn " + binary);
        while (!harness::client::pingServer(address_)) {
            if (!pollProcess(pid_).running) {
                pid_ = -1;
                throw IoError("mannad exited before becoming ready");
            }
            if (secondsSince(t0) > 30.0) {
                killProcess(pid_);
                waitProcess(pid_);
                pid_ = -1;
                throw IoError("mannad not ready after 30 s");
            }
            ::usleep(200);
        }
        readySeconds_ = secondsSince(t0);
    }

    ~Daemon()
    {
        if (pid_ <= 0)
            return;
        try {
            harness::client::requestServerShutdown(address_);
        } catch (const Error &) {
            killProcess(pid_);
        }
        const auto t0 = Clock::now();
        while (pollProcess(pid_).running) {
            if (secondsSince(t0) > 10.0) {
                killProcess(pid_);
                waitProcess(pid_);
                break;
            }
            ::usleep(2000);
        }
        ::unlink(sockPath_.c_str());
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &address() const { return address_; }
    double readySeconds() const { return readySeconds_; }
    double peakRssKb() const
    {
        return ::peakRssKb(std::to_string(pid_));
    }

  private:
    std::string address_;
    std::string sockPath_;
    pid_t pid_ = -1;
    double readySeconds_ = 0.0;
};

/** One numeric counter from the daemon's stats JSON ("key": N). */
double
daemonCounter(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = json.find(needle);
    if (pos == std::string::npos)
        throw IoError("daemon stats lack " + key);
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// ---------------------------------------------------------- the bench

struct Options
{
    Workload workload;
    std::uint64_t seed = 1;
    /** setup | sweep | trace | write_ref */
    std::string mode;
    double seconds = 15.0; ///< sweep mode: timing window
    std::string mannad;
    std::string refDir;
    std::string outDir;
};

/** One untraced sweep (a "rep"): timings plus outcomes. */
struct Rep
{
    double sweepSeconds = 0.0;
    /** Process (plus daemon) peak so far; each process runs one
     * workload, so this is the workload's own peak. */
    double peakRssMb = 0.0;
    harness::SweepReport report;
    std::string daemonStats;           ///< remote only
    double daemonRssMb = 0.0;          ///< remote only
    std::vector<double> pingMs;        ///< remote only
    std::size_t cacheLookups = 0;
    std::size_t cacheHits = 0;
};

class Bench
{
  public:
    explicit Bench(Options o)
        : opt_(std::move(o)), jobs_(makeJobs(opt_.workload, opt_.seed)),
          runner_(opt_.workload.workers)
    {
        sweepOpts_.retries = 0;
        sweepOpts_.handleSignals = false;
    }

    Results run();

  private:
    double setupOnce();
    std::string socketPath() const;
    Rep untracedRep(const std::vector<harness::SweepJob> &jobs,
                    Daemon *daemon, std::size_t pings);
    void checkRep(Results &res, const std::vector<harness::SweepJob> &jobs,
                  const Rep &rep,
                  const std::map<std::string, RefEntry> &ref) const;
    void traced(Results &res, const std::vector<harness::JobOutcome>
                                  &untraced,
                double untracedJobMs);
    static double streamGbps();

    Options opt_;
    std::vector<harness::SweepJob> jobs_;
    harness::SweepRunner runner_;
    harness::SweepOptions sweepOpts_;
};

/**
 * Set-up cost of an in-process workload: a cold compile of each
 * distinct model plus one chip construction, timed serially. (For
 * fig12_remote set-up is the daemon's spawn-to-ready time instead.)
 */
double
Bench::setupOnce()
{
    compiler::clearCompileCache();
    const auto t0 = Clock::now();
    for (const auto &job : jobs_) {
        const auto model =
            compiler::compileCached(job.benchmark.config, job.config);
        sim::Chip chip(*model, job.seed, job.fidelity);
    }
    const double s = secondsSince(t0);
    compiler::clearCompileCache();
    return s;
}

std::string
Bench::socketPath() const
{
    return strformat("%s/mannad-%d.sock", opt_.outDir.c_str(),
                     ::getpid());
}

Rep
Bench::untracedRep(const std::vector<harness::SweepJob> &jobs,
                   Daemon *daemon, std::size_t pings)
{
    Rep rep;
    // A user's bench process starts with an empty compile cache, so
    // every sweep does too (this also zeroes the hit/miss counters).
    compiler::clearCompileCache();
    harness::SweepOptions opts = sweepOpts_;
    if (daemon) {
        for (std::size_t i = 0; i < pings; ++i) {
            const auto p0 = Clock::now();
            if (!harness::client::pingServer(daemon->address()))
                throw IoError("mannad ping failed");
            rep.pingMs.push_back(1e3 * secondsSince(p0));
        }
        opts.server = daemon->address();
    }
    const auto t0 = Clock::now();
    rep.report = runner_.runChecked(jobs, opts);
    rep.sweepSeconds = secondsSince(t0);
    rep.peakRssMb = peakRssKb("self") / 1024.0;
    if (daemon) {
        rep.daemonStats =
            harness::client::fetchServerStats(daemon->address());
        rep.daemonRssMb = daemon->peakRssKb() / 1024.0;
        rep.peakRssMb += rep.daemonRssMb;
    }
    rep.cacheHits = compiler::compileCacheHits();
    rep.cacheLookups = rep.cacheHits + compiler::compileCacheMisses();
    return rep;
}

/** Check every outcome of a sweep against the reference; a daemon
 * must never have answered from its result cache. */
void
Bench::checkRep(Results &res, const std::vector<harness::SweepJob> &jobs,
                const Rep &rep,
                const std::map<std::string, RefEntry> &ref) const
{
    for (std::size_t i = 0; i < jobs.size(); ++i)
        checkOutcome(res, jobs[i], rep.report.outcomes[i], ref);
    if (!rep.daemonStats.empty() &&
        daemonCounter(rep.daemonStats, "journal_hits") != 0) {
        ++res.failed;
        res.fail("daemon answered from its result cache");
    }
}

/** Host streaming bandwidth through the public kernel table: best of
 * several out = a + b passes over arrays larger than the caches. */
double
Bench::streamGbps()
{
    const std::size_t n = std::size_t{4} << 20; // 16 MiB per array
    std::vector<float> a(n, 1.0f), b(n, 2.0f), out(n, 0.0f);
    const auto &k = tensor::simd::kernels();
    double best = 0.0;
    for (int rep = 0; rep < 12; ++rep) {
        const auto t0 = Clock::now();
        k.add(a.data(), b.data(), out.data(), n);
        const double s = secondsSince(t0);
        best = std::max(best, 3.0 * 4.0 * static_cast<double>(n) / s);
    }
    if (out[n / 2] != 3.0f)
        throw SimError("stream probe computed a wrong sum");
    return best / 1e9;
}

// Span names of the traced job function, one per public call.
enum SpanKind
{
    kJob,      ///< harness: the job function as a whole
    kCompile,  ///< compiler::compileCached
    kEpisode,  ///< workloads::generateEpisode plus padding
    kInit,     ///< sim::Chip constructor
    kCycleStep,
    kCalibStep,
    kReplayStep,
    kReport,   ///< Chip::report
    kCheck,    ///< golden-model comparison (the benchmark's own work)
    kNumSpanKinds
};

const char *const kSpanNames[kNumSpanKinds] = {
    "harness.job",        "compiler.compile",  "workloads.episode",
    "sim.init",           "sim.cycle_step",    "sim.calib_step",
    "sim.replay_step",    "sim.report",        "bench.check",
};

struct Span
{
    SpanKind kind;
    double startMs; ///< since the traced sweep began
    double endMs;
    int parent;     ///< index into the job's span list, -1 for root
    std::size_t job;
};

struct JobTrace
{
    std::vector<Span> spans;
    float maxDev[3] = {0, 0, 0}; ///< outputs, reads, memory
    std::uint64_t bytesPerStep = 0;
    std::uint64_t instsPerStep = 0;
};

void
Bench::traced(Results &res,
              const std::vector<harness::JobOutcome> &untraced,
              double untracedJobMs)
{
    const Workload &w = opt_.workload;
    std::vector<JobTrace> traces(jobs_.size());
    compiler::clearCompileCache();
    const auto origin = Clock::now();
    auto ms = [&origin] {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         origin)
            .count();
    };

    // The sweep's compileCached, then harness::runCompiled call for
    // call, with Chip::run unrolled into its Chip::step calls; only the
    // spans and the out-of-span golden check are added.
    const auto fn = [&](std::size_t i, const CancelToken &cancel)
        -> harness::MannaResult {
        const harness::SweepJob &job = jobs_[i];
        JobTrace &jt = traces[i];
        jt.spans.clear();
        jt.spans.push_back({kJob, ms(), 0.0, -1, i});
        auto timed = [&](SpanKind kind, auto &&body) {
            Span s{kind, ms(), 0.0, 0, i};
            body();
            s.endMs = ms();
            jt.spans.push_back(s);
        };

        std::shared_ptr<const compiler::CompiledModel> model;
        timed(kCompile, [&] {
            model = compiler::compileCached(job.benchmark.config,
                                            job.config);
        });
        std::optional<sim::Chip> chip;
        timed(kInit,
              [&] { chip.emplace(*model, job.seed, job.fidelity); });
        chip->setCancelToken(&cancel);
        workloads::Episode episode;
        timed(kEpisode, [&] {
            Rng rng(job.seed ^ 0x5eedf00dull);
            episode = workloads::generateEpisode(job.benchmark,
                                                 job.steps, rng);
            while (episode.inputs.size() < job.steps)
                episode.inputs.push_back(tensor::FVec(
                    job.benchmark.config.inputDim, 0.0f));
            episode.inputs.resize(job.steps);
        });
        std::vector<tensor::FVec> outputs(job.steps);
        for (std::size_t t = 0; t < job.steps; ++t) {
            const SpanKind kind =
                job.fidelity == sim::Fidelity::Cycle ? kCycleStep
                : t < sim::kFastCalibrationSteps     ? kCalibStep
                                                     : kReplayStep;
            timed(kind,
                  [&] { outputs[t] = chip->step(episode.inputs[t]); });
        }
        harness::MannaResult result;
        timed(kReport, [&] { result.report = chip->report(); });

        result.secondsPerStep = result.report.secondsPerStep();
        const double steps =
            static_cast<double>(std::max<std::size_t>(job.steps, 1));
        result.joulesPerStep = result.report.totalEnergyJoules() / steps;
        const double cyclePeriod = model->archCfg.cyclePeriodSec();
        for (const auto &[group, gs] : result.report.groups)
            result.groupSeconds[group] =
                static_cast<double>(gs.cycles) * cyclePeriod / steps;

        timed(kCheck, [&] {
            mann::Ntm golden(job.benchmark.config, job.seed);
            mann::StepTrace last;
            for (std::size_t t = 0; t < job.steps; ++t) {
                last = golden.step(episode.inputs[t]);
                jt.maxDev[0] = std::max(
                    jt.maxDev[0],
                    tensor::maxAbsDiff(outputs[t], last.output));
            }
            for (std::size_t h = 0; h < last.readVectors.size(); ++h)
                jt.maxDev[1] = std::max(
                    jt.maxDev[1],
                    tensor::maxAbsDiff(chip->readVectors()[h],
                                       last.readVectors[h]));
            jt.maxDev[2] = chip->gatherMemory().maxAbsDiff(
                golden.memory().matrix());
            jt.bytesPerStep = mann::OpCounter(job.benchmark.config)
                                  .totalWork()
                                  .bytesTouched();
            jt.instsPerStep = static_cast<std::uint64_t>(
                result.report.stats.sumOver("tile", "instructions") /
                steps);
        });
        jt.spans[0].endMs = ms();
        return result;
    };

    const auto t0 = Clock::now();
    const harness::SweepReport report =
        runner_.runIsolated(jobs_.size(), fn, {}, {}, sweepOpts_);
    const double tracedSeconds = secondsSince(t0);

    // Correctness: golden tolerance (tests/test_sim_chip.cc) and bit
    // identity with the untraced run of the same job.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        ++res.attempted;
        const std::string label = jobs_[i].label();
        const auto &o = report.outcomes[i];
        const JobTrace &jt = traces[i];
        std::string why;
        if (!o.ok)
            why = o.error.describe();
        else if (jt.maxDev[0] >= 1e-3f || jt.maxDev[1] >= 1e-3f ||
                 jt.maxDev[2] >= 1e-3f)
            why = strformat("golden deviation out/read/mem %g/%g/%g",
                            jt.maxDev[0], jt.maxDev[1], jt.maxDev[2]);
        else if (!untraced[i].ok ||
                 digestResult(o.value) != digestResult(untraced[i].value))
            why = "traced result differs from the untraced one";
        if (!why.empty()) {
            ++res.failed;
            res.fail(label + " (traced): " + why);
        }
    }

    // Per-kind durations and self times (a span's duration minus the
    // part its children cover; only the job span has children).
    std::vector<double> byKind[kNumSpanKinds];
    double selfMs[kNumSpanKinds] = {};
    double attemptMs = 0.0, bytes = 0.0, insts = 0.0, instsPerStep = 0.0;
    double cycles = 0.0, steps = 0.0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const harness::SweepJob &job = jobs_[i];
        const JobTrace &jt = traces[i];
        double childMs = 0.0;
        for (const Span &s : jt.spans) {
            const double d = s.endMs - s.startMs;
            byKind[s.kind].push_back(d);
            if (s.parent >= 0) {
                childMs += d;
                selfMs[s.kind] += d;
            }
        }
        // The harness layer's self time is the attempt wall the sweep
        // runner measured minus every span inside the job function.
        selfMs[kJob] += report.outcomes[i].wallMs - childMs;
        attemptMs += report.outcomes[i].wallMs;
        const bool fast = job.fidelity == sim::Fidelity::Fast;
        const std::size_t interpreted =
            fast ? sim::kFastCalibrationSteps : job.steps;
        bytes += static_cast<double>(jt.bytesPerStep) *
                 static_cast<double>(job.steps - interpreted);
        insts += static_cast<double>(jt.instsPerStep * interpreted);
        instsPerStep += static_cast<double>(jt.instsPerStep);
        cycles += static_cast<double>(
            report.outcomes[i].value.report.totalCycles);
        steps += static_cast<double>(job.steps);
    }
    const double checkMs = sum(byKind[kCheck]);

    const double stream = streamGbps();
    auto &m = res.metrics;
    res.timing("workloads.episode_ms", byKind[kEpisode]);
    m["compiler.compile_ms"] = sum(byKind[kCompile]);
    m["sim.init_ms.p50"] = median(byKind[kInit]);
    m["sim.init_ms.sum"] = sum(byKind[kInit]);
    res.timing("sim.cycle_step_ms", byKind[kCycleStep]);
    res.timing("sim.calib_step_ms", byKind[kCalibStep]);
    res.timing("sim.replay_step_ms", byKind[kReplayStep]);
    const double interpMs =
        sum(byKind[kCycleStep]) + sum(byKind[kCalibStep]);
    m["sim.ns_per_inst"] = insts > 0 ? 1e6 * interpMs / insts : 0.0;
    const double replayMs = sum(byKind[kReplayStep]);
    m["sim.replay_gbps"] = replayMs > 0 ? bytes / (1e6 * replayMs) : 0.0;
    m["sim.replay_of_stream"] = m["sim.replay_gbps"] / stream;
    m["sim.report_ms.p50"] = median(byKind[kReport]);
    m["sim.cycles_per_step"] = cycles / steps;
    m["sim.insts_per_step"] =
        instsPerStep / static_cast<double>(jobs_.size());
    m["tensor.stream_gbps"] = stream;
    m["harness.overhead_ms_per_job"] =
        selfMs[kJob] / static_cast<double>(jobs_.size());
    const double busy = attemptMs - checkMs;
    m["workloads.self_frac"] = selfMs[kEpisode] / attemptMs;
    m["compiler.self_frac"] = selfMs[kCompile] / attemptMs;
    m["sim.self_frac"] = (selfMs[kInit] + selfMs[kCycleStep] +
                          selfMs[kCalibStep] + selfMs[kReplayStep] +
                          selfMs[kReport]) /
                         attemptMs;
    m["harness.self_frac"] = selfMs[kJob] / attemptMs;
    m["bench.check_frac"] = checkMs / attemptMs;
    m["trace.overhead_frac"] = busy / untracedJobMs - 1.0;
    m["trace.sweep_s"] = tracedSeconds;

    // Keep the spans in memory during the run; write them out now.
    std::ofstream out(strformat("%s/spans-%s-seed%llu.jsonl",
                                opt_.outDir.c_str(), w.name.c_str(),
                                static_cast<unsigned long long>(
                                    opt_.seed)));
    for (const JobTrace &jt : traces)
        for (const Span &s : jt.spans)
            out << strformat("{\"name\": \"%s\", \"start_ms\": %.6f, "
                             "\"end_ms\": %.6f, \"parent\": %d, "
                             "\"job\": %zu}\n",
                             kSpanNames[s.kind], s.startMs, s.endMs,
                             s.parent, s.job);
}

Results
Bench::run()
{
    Results res;
    const Workload &w = opt_.workload;
    const std::string refPath = referencePath(opt_.refDir, w);

    if (opt_.mode == "write_ref") {
        const Rep rep = untracedRep(jobs_, nullptr, 0);
        std::ofstream out(refPath);
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (!rep.report.outcomes[i].ok)
                throw SimError(jobs_[i].label() + " failed");
            out << refLine(refKey(jobs_[i]),
                           rep.report.outcomes[i].value);
        }
        return res;
    }
    const auto ref = loadReference(refPath);

    if (opt_.mode == "setup") {
        std::vector<double> setup;
        for (std::size_t r = 0; r < w.setupReps; ++r) {
            setup.push_back(
                w.remote ? Daemon(opt_.mannad, socketPath(), w.workers)
                               .readySeconds()
                         : setupOnce());
            std::fprintf(stderr, "perfbench: %s setup %zu: %.4f s\n",
                         w.name.c_str(), r, setup.back());
        }
        res.metrics["setup_s"] = median(setup);
        return res;
    }

    std::optional<Daemon> daemon;
    if (w.remote)
        daemon.emplace(opt_.mannad, socketPath(), w.workers);
    Daemon *const server = daemon ? &*daemon : nullptr;

    if (opt_.mode == "sweep") {
        // Sweeps run back to back, the first on a fresh heap (and a
        // fresh daemon), until the next one would end past the window;
        // there are at least two. Other tenants of the host only ever
        // add time, so sweep_s is the fastest sweep. Sweep k simulates
        // seed + k, so the daemon's result cache never answers;
        // simulated timing does not depend on data.
        const auto window = Clock::now();
        double fastest = 0.0;
        for (std::size_t k = 0;; ++k) {
            const auto jobs = makeJobs(w, opt_.seed + k);
            const Rep rep = untracedRep(jobs, server, 0);
            checkRep(res, jobs, rep, ref);
            std::fprintf(stderr, "perfbench: %s sweep %zu: %.4f s\n",
                         w.name.c_str(), k, rep.sweepSeconds);
            fastest = k == 0 ? rep.sweepSeconds
                             : std::min(fastest, rep.sweepSeconds);
            res.metrics["peak_rss_mb"] = rep.peakRssMb;
            if (k >= 1 &&
                secondsSince(window) + rep.sweepSeconds > opt_.seconds)
                break;
        }
        res.metrics["sweep_s"] = fastest;
        return res;
    }
    if (opt_.mode != "trace")
        throw ConfigError("unknown mode '" + opt_.mode + "'");

    // The untraced twin of every traced job; for fig12_remote it also
    // gives the service metrics.
    setupOnce(); // warm-up
    const Rep rep = untracedRep(jobs_, server, 40);
    checkRep(res, jobs_, rep, ref);

    std::vector<double> jobMs;
    double attempts = 0.0, busyMs = 0.0;
    for (const auto &o : rep.report.outcomes) {
        jobMs.push_back(o.wallMs);
        attempts += static_cast<double>(o.attempts);
        busyMs += o.wallMs;
    }
    auto &m = res.metrics;
    res.timing("harness.job_ms", jobMs);
    m["harness.attempts"] = attempts;
    m["harness.worker_idle_frac"] =
        1.0 - busyMs / (1e3 * static_cast<double>(w.workers) *
                        rep.sweepSeconds);

    // Service layer (fig12_remote only; zero elsewhere).
    m["service.ready_ms"] = server ? 1e3 * server->readySeconds() : 0.0;
    m["service.daemon_rss_mb"] = rep.daemonRssMb;
    res.timing("service.ping_ms", rep.pingMs);
    if (w.remote) {
        m["service.steals"] = daemonCounter(rep.daemonStats, "steals");
        m["service.retry_after"] =
            daemonCounter(rep.daemonStats, "retry_after");
        m["service.cache_hits"] =
            daemonCounter(rep.daemonStats, "journal_hits");
    } else {
        m["service.steals"] = m["service.retry_after"] =
            m["service.cache_hits"] = 0.0;
    }

    // The traced run compares against an in-process untraced sweep of
    // the same jobs; for fig12_remote that is one more sweep here.
    const Rep local = w.remote ? untracedRep(jobs_, nullptr, 0) : Rep{};
    const Rep &inProcess = w.remote ? local : rep;
    if (w.remote)
        checkRep(res, jobs_, local, ref);
    double inProcessMs = 0.0;
    for (const auto &o : inProcess.report.outcomes)
        inProcessMs += o.wallMs;
    m["service.self_frac"] = w.remote ? 1.0 - inProcessMs / busyMs : 0.0;
    m["compiler.cache_lookups"] =
        static_cast<double>(inProcess.cacheLookups);
    m["compiler.cache_hit_ratio"] =
        inProcess.cacheLookups > 0
            ? static_cast<double>(inProcess.cacheHits) /
                  static_cast<double>(inProcess.cacheLookups)
            : 0.0;

    traced(res, rep.report.outcomes, inProcessMs);
    m["harness.error_rate"] = static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted);
    return res;
}

Workload
workloadByName(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return w;
    throw ConfigError("unknown workload '" + name + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Config cfg = Config::fromArgs(argc, argv);
        Options opt;
        opt.workload = workloadByName(cfg.getString("workload", ""));
        opt.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
        opt.mode = cfg.getString("mode", "");
        opt.seconds = cfg.getDouble("seconds", 15.0);
        opt.mannad = cfg.getString("mannad", "");
        opt.refDir = cfg.getString("ref_dir", "");
        opt.outDir = cfg.getString("out_dir", ".");

        Bench bench(opt);
        const Results res = bench.run();
        std::string out = strformat(
            "{\"attempted\": %zu, \"failed\": %zu, \"errors\": [",
            res.attempted, res.failed);
        for (std::size_t i = 0; i < res.errors.size(); ++i)
            out += strformat("%s\"%s\"", i ? ", " : "",
                             jsonEscape(res.errors[i]).c_str());
        out += "], \"metrics\": {";
        const char *sep = "";
        for (const auto &[name, v] : res.metrics) {
            out += strformat("%s\"%s\": %.17g", sep, name.c_str(), v);
            sep = ", ";
        }
        out += "}, \"tails\": {";
        sep = "";
        for (const auto &[name, t] : res.tails) {
            out += strformat("%s\"%s\": [%.1f, %zu]", sep, name.c_str(),
                             t.first, t.second);
            sep = ", ";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
