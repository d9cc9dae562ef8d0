#include "observe.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/config.hh"
#include "common/event_log.hh"
#include "common/fileio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"
#include "sim/trace.hh"

namespace manna::harness
{

namespace
{

std::string
defaultTracePath()
{
    if (const char *env = std::getenv("MANNA_TRACE"))
        return env;
    return "";
}

std::string
envPath(const char *var)
{
    if (const char *env = std::getenv(var))
        return env;
    return "";
}

std::size_t
defaultProfileTop()
{
    if (const char *env = std::getenv("MANNA_PROFILE_TOP")) {
        const auto v = parseInt(env);
        if (v && *v > 0)
            return static_cast<std::size_t>(*v);
        warn("ignoring invalid MANNA_PROFILE_TOP='%s'", env);
    }
    return 5;
}

std::size_t
defaultTraceLimit()
{
    if (const char *env = std::getenv("MANNA_TRACE_LIMIT")) {
        const auto v = parseInt(env);
        if (v && *v > 0)
            return static_cast<std::size_t>(*v);
        warn("ignoring invalid MANNA_TRACE_LIMIT='%s'", env);
    }
    return 65536;
}

} // namespace

TraceOptions
traceOptionsFromConfig(const Config &cfg)
{
    TraceOptions opts;
    opts.path = cfg.getString("trace", defaultTracePath());
    opts.maxEntries = static_cast<std::size_t>(
        std::max<std::int64_t>(
            1, cfg.getInt("trace_limit", static_cast<std::int64_t>(
                                             defaultTraceLimit()))));
    return opts;
}

bool
writeChromeTrace(const TraceOptions &opts,
                 const workloads::Benchmark &benchmark,
                 const arch::MannaConfig &config, std::size_t steps)
{
    if (!opts.enabled())
        return false;
    const auto model = compiler::compileCached(benchmark.config,
                                               config);
    sim::TraceLogger logger(opts.maxEntries);
    runCompiled(*model, steps, nullptr, &logger);

    if (!writeFileAtomic(opts.path, logger.renderChromeTrace())) {
        warn("cannot write chrome trace to '%s'", opts.path.c_str());
        return false;
    }
    debugLog("chrome trace: %zu events (%zu dropped) -> %s",
             logger.entries().size(), logger.dropped(),
             opts.path.c_str());
    return true;
}

ProfileOptions
profileOptionsFromConfig(const Config &cfg)
{
    ProfileOptions opts;
    opts.path = cfg.getString("profile", envPath("MANNA_PROFILE"));
    opts.topN = static_cast<std::size_t>(std::max<std::int64_t>(
        1, cfg.getInt("profile_top",
                      static_cast<std::int64_t>(defaultProfileTop()))));
    return opts;
}

namespace
{

/** One (engine, stall-reason) aggregate across all tiles. */
struct StallEntry
{
    std::string engine;
    std::string reason;
    double cycles = 0.0;
};

std::string
stallEntryJson(const StallEntry &e, double engineCycles)
{
    const double share =
        engineCycles > 0.0 ? e.cycles / engineCycles : 0.0;
    return strformat("{\"engine\": \"%s\", \"reason\": \"%s\", "
                     "\"cycles\": %s, \"share_of_engine_cycles\": %s}",
                     e.engine.c_str(), e.reason.c_str(),
                     jsonNumber(e.cycles).c_str(),
                     jsonNumber(share).c_str());
}

} // namespace

std::string
renderProfileJson(const workloads::Benchmark &benchmark,
                  const arch::MannaConfig &config, std::size_t steps,
                  std::size_t topN)
{
    static constexpr const char *kEngines[] = {"emac", "sfu",
                                               "mat_dma", "vec_dma"};
    const auto model = compiler::compileCached(benchmark.config,
                                               config);
    const MannaResult result = runCompiled(*model, steps);
    const StatRegistry &reg = result.report.stats;
    const double totalCycles =
        static_cast<double>(result.report.totalCycles);
    const double tiles = static_cast<double>(config.numTiles);
    // Denominator for stall shares: every engine cycle on the chip.
    const double engineCycles = totalCycles * tiles * 4.0;

    // Aggregate stalls per (engine, reason) across tiles, skipping
    // the frontend issue bucket (it is back-pressure, not a cause).
    std::vector<StallEntry> entries;
    std::map<std::string, double> byReason;
    for (const char *engine : kEngines) {
        for (std::size_t r = 0; r < sim::kNumStallReasons; ++r) {
            const char *reason =
                sim::toString(static_cast<sim::StallReason>(r));
            if (std::string(reason) == "issue")
                continue;
            const double cycles = reg.sumOver(
                "tile",
                std::string(engine) + ".stall." + reason);
            entries.push_back({engine, reason, cycles});
            byReason[reason] += cycles;
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const StallEntry &a, const StallEntry &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  if (a.engine != b.engine)
                      return a.engine < b.engine;
                  return a.reason < b.reason;
              });
    StallEntry dominant{"all", "", 0.0};
    for (const auto &[reason, cycles] : byReason)
        if (cycles > dominant.cycles) {
            dominant.reason = reason;
            dominant.cycles = cycles;
        }

    // Roofline against the configured peaks: each eMAC retires one
    // MAC (2 FLOPs) per cycle; the differentiable-memory bandwidth is
    // the aggregate Matrix-Buffer -> Scratchpad stream.
    const double flops =
        2.0 * reg.sumOver("tile", "emac.mac_ops") +
        reg.sumOver("tile", "emac.elwise_ops");
    const double memBytes =
        reg.sumOver("tile", "mat_dma.words") *
        static_cast<double>(kWordBytes);
    const double seconds = result.report.totalSeconds;
    const double peakGflops = tiles *
                              static_cast<double>(config.emacsPerTile) *
                              2.0 * config.clockMhz * 1e-3;
    const double peakGbs = config.aggregateMatrixBandwidthGBs();
    const double achievedGflops =
        seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
    const double achievedGbs =
        seconds > 0.0 ? memBytes / seconds * 1e-9 : 0.0;
    const double intensity = memBytes > 0.0 ? flops / memBytes : 0.0;
    const double ridge = peakGbs > 0.0 ? peakGflops / peakGbs : 0.0;

    std::string out = "{\n";
    out += "  \"schema\": \"manna-profile-v1\",\n";
    out += strformat("  \"benchmark\": \"%s\",\n",
                     jsonEscape(benchmark.name).c_str());
    out += strformat(
        "  \"chip\": {\"tiles\": %zu, \"steps\": %zu, \"cycles\": %s, "
        "\"seconds\": %s, \"clock_mhz\": %s},\n",
        config.numTiles, result.report.steps,
        jsonNumber(totalCycles).c_str(), jsonNumber(seconds).c_str(),
        jsonNumber(config.clockMhz).c_str());
    out += "  \"dominant_stall\": ";
    out += dominant.reason.empty()
               ? "null"
               : stallEntryJson(dominant, engineCycles);
    out += ",\n";
    out += "  \"bottlenecks\": [\n";
    const std::size_t n = std::min(topN, entries.size());
    for (std::size_t i = 0; i < n; ++i) {
        out += "    " + stallEntryJson(entries[i], engineCycles);
        out += i + 1 < n ? ",\n" : "\n";
    }
    out += "  ],\n";
    out += strformat(
        "  \"roofline\": {\"peak_gflops\": %s, "
        "\"achieved_gflops\": %s, \"peak_membw_gbs\": %s, "
        "\"achieved_membw_gbs\": %s, \"flops\": %s, "
        "\"mem_bytes\": %s, \"intensity_flops_per_byte\": %s, "
        "\"ridge_flops_per_byte\": %s, \"bound\": \"%s\"},\n",
        jsonNumber(peakGflops).c_str(),
        jsonNumber(achievedGflops).c_str(),
        jsonNumber(peakGbs).c_str(), jsonNumber(achievedGbs).c_str(),
        jsonNumber(flops).c_str(), jsonNumber(memBytes).c_str(),
        jsonNumber(intensity).c_str(), jsonNumber(ridge).c_str(),
        intensity < ridge ? "memory" : "compute");
    out += "  \"counters\": " + reg.toJson(4) + "\n";
    out += "}\n";
    return out;
}

bool
writeProfile(const ProfileOptions &opts,
             const workloads::Benchmark &benchmark,
             const arch::MannaConfig &config, std::size_t steps)
{
    if (!opts.enabled())
        return false;
    const std::string doc =
        renderProfileJson(benchmark, config, steps, opts.topN);
    if (!writeFileAtomic(opts.path, doc)) {
        warn("cannot write profile to '%s'", opts.path.c_str());
        return false;
    }
    debugLog("cycle-accounting profile -> %s", opts.path.c_str());
    return true;
}

BenchJsonOptions
benchJsonOptionsFromConfig(const Config &cfg)
{
    BenchJsonOptions opts;
    opts.path =
        cfg.getString("bench_json", envPath("MANNA_BENCH_JSON"));
    return opts;
}

std::string
renderBenchJson(const std::string &benchName,
                const SweepReport &report)
{
    const std::size_t failed = report.failures();
    const std::size_t ok = report.outcomes.size() - failed;
    std::string out = "{\n";
    out += "  \"schema\": \"manna-bench-v1\",\n";
    out += strformat("  \"name\": \"%s\",\n",
                     jsonEscape(benchName).c_str());
    out += strformat("  \"jobs\": {\"total\": %zu, \"ok\": %zu, "
                     "\"failed\": %zu},\n",
                     ok + failed, ok, failed);
    out += "  \"counters\": " + report.aggregateStats().toJson(4) +
           ",\n";
    // Informational only: bench_compare.py ignores this section.
    out += strformat("  \"wall\": {\"sweep_seconds\": %s, "
                     "\"workers\": %zu}\n",
                     jsonNumber(report.wallSeconds).c_str(),
                     report.workers);
    out += "}\n";
    return out;
}

bool
writeBenchJson(const BenchJsonOptions &opts,
               const std::string &benchName, const SweepReport &report)
{
    if (!opts.enabled())
        return false;
    if (!writeFileAtomic(opts.path,
                         renderBenchJson(benchName, report))) {
        warn("cannot write bench snapshot to '%s'", opts.path.c_str());
        return false;
    }
    debugLog("bench snapshot -> %s", opts.path.c_str());
    return true;
}

bool
dumpStatsIfRequested(const Config &cfg, const StatRegistry &stats)
{
    if (!cfg.getBool("dump_stats", false))
        return false;
    std::fputs("\ncounters:\n", stdout);
    std::fputs(stats.renderDescribed().c_str(), stdout);
    return true;
}

HarnessTraceOptions
harnessTraceOptionsFromConfig(const Config &cfg)
{
    HarnessTraceOptions opts;
    opts.path =
        cfg.getString("harness_trace", envPath("MANNA_HARNESS_TRACE"));
    return opts;
}

namespace
{

/** One Chrome trace event with its sort key. The JSON body is
 * pre-rendered so sorting never re-escapes anything. */
struct MergedTraceEvent
{
    double tsUs = 0.0;
    std::size_t order = 0; ///< tie-break: original emission order
    std::string json;
};

/** `"args":{...}` for a span from its begin/end details (both still
 * JSON-escaped from the parse). Empty when there is nothing to say. */
std::string
spanArgs(const std::string &begin, const std::string &end,
         bool truncated)
{
    std::string args;
    auto add = [&](const char *key, const std::string &val) {
        if (!args.empty())
            args += ",";
        args += strformat("\"%s\":\"%s\"", key, val.c_str());
    };
    if (!begin.empty())
        add("detail", begin);
    if (!end.empty())
        add("end", end);
    if (truncated)
        add("truncated", "1");
    if (args.empty())
        return "";
    return ",\"args\":{" + args + "}";
}

} // namespace

std::string
renderHarnessTrace(const std::vector<std::string> &paths)
{
    std::vector<events::ParsedEventFile> files;
    for (const std::string &path : paths) {
        events::ParsedEventFile f = events::parseEventFile(path);
        if (!f.ok) {
            warn("skipping unreadable event file '%s'", path.c_str());
            continue;
        }
        files.push_back(std::move(f));
    }

    // Zero the merged timeline at the earliest process: subtracting
    // the minimum wall clock keeps ts small and positive.
    std::uint64_t baseUs = 0;
    bool haveBase = false;
    for (const events::ParsedEventFile &f : files)
        if (!haveBase || f.wallUs < baseUs) {
            baseUs = f.wallUs;
            haveBase = true;
        }

    std::uint64_t droppedTotal = 0;
    std::size_t skippedTotal = 0;
    std::vector<std::string> metadata;
    std::vector<MergedTraceEvent> merged;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const events::ParsedEventFile &f = files[fi];
        const std::size_t pid = fi + 1; // trace pid, not OS pid
        const double offsetUs = static_cast<double>(f.wallUs - baseUs);
        droppedTotal += f.dropped;
        skippedTotal += f.skippedLines;
        metadata.push_back(strformat(
            "{\"ph\":\"M\",\"pid\":%zu,\"tid\":0,"
            "\"name\":\"process_name\",\"args\":{\"name\":\"%s (pid "
            "%ld)\"}}",
            pid, jsonEscape(f.role).c_str(), f.pid));

        auto push = [&](double ts, const std::string &ev) {
            merged.push_back({ts, merged.size(), ev});
        };
        // Open spans by id; a "B" with no matching "E" (killed
        // worker) is closed at the file's last timestamp below.
        std::map<std::uint64_t, const events::ParsedEvent *> open;
        std::uint64_t lastT = 0;
        for (const events::ParsedEvent &e : f.events) {
            if (e.t > lastT)
                lastT = e.t;
            const double ts =
                offsetUs + static_cast<double>(e.t) / 1000.0;
            switch (e.phase) {
            case 'B':
                open[e.id] = &e;
                break;
            case 'E': {
                auto it = open.find(e.id);
                if (it == open.end()) {
                    ++skippedTotal; // torn begin: file lost its B
                    break;
                }
                const events::ParsedEvent &b = *it->second;
                const double bts =
                    offsetUs + static_cast<double>(b.t) / 1000.0;
                const double dur =
                    static_cast<double>(e.t - b.t) / 1000.0;
                push(bts,
                     strformat("{\"ph\":\"X\",\"pid\":%zu,"
                               "\"tid\":%u,\"ts\":%.3f,"
                               "\"dur\":%.3f,\"name\":\"%s\","
                               "\"cat\":\"harness\"%s}",
                               pid, b.tid, bts, dur,
                               jsonEscape(b.name).c_str(),
                               spanArgs(b.detail, e.detail, false)
                                   .c_str()));
                open.erase(it);
                break;
            }
            default:
                push(ts,
                     strformat("{\"ph\":\"i\",\"pid\":%zu,"
                               "\"tid\":%u,\"ts\":%.3f,"
                               "\"name\":\"%s\",\"s\":\"t\","
                               "\"cat\":\"harness\"%s}",
                               pid, e.tid, ts,
                               jsonEscape(e.name).c_str(),
                               spanArgs(e.detail, "", false).c_str()));
                break;
            }
        }
        for (const auto &[id, b] : open) {
            (void)id;
            const double bts =
                offsetUs + static_cast<double>(b->t) / 1000.0;
            const double dur =
                static_cast<double>(lastT > b->t ? lastT - b->t : 0) /
                1000.0;
            push(bts, strformat(
                          "{\"ph\":\"X\",\"pid\":%zu,\"tid\":%u,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\","
                          "\"cat\":\"harness\"%s}",
                          pid, b->tid, bts, dur,
                          jsonEscape(b->name).c_str(),
                          spanArgs(b->detail, "", true).c_str()));
        }
    }

    std::stable_sort(merged.begin(), merged.end(),
                     [](const MergedTraceEvent &a,
                        const MergedTraceEvent &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.order < b.order;
                     });

    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    out += strformat("\"schema\":\"manna-harness-trace-v1\","
                     "\"files\":%zu,\"droppedEvents\":%llu,"
                     "\"skippedLines\":%zu},",
                     files.size(),
                     static_cast<unsigned long long>(droppedTotal),
                     skippedTotal);
    out += "\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        if (!first)
            out += ",";
        first = false;
        out += "\n" + ev;
    };
    for (const std::string &m : metadata)
        emit(m);
    for (const MergedTraceEvent &ev : merged)
        emit(ev.json);
    out += "\n]}\n";
    return out;
}

bool
writeHarnessTrace(const HarnessTraceOptions &opts)
{
    if (!opts.enabled())
        return false;
    events::EventLog &log = events::EventLog::instance();
    log.close(); // flush the trailer so our own file parses complete
    const std::vector<std::string> paths = log.mergeFiles();
    if (paths.empty()) {
        warn("harness_trace= needs events=; no event log was armed");
        return false;
    }
    if (!writeFileAtomic(opts.path, renderHarnessTrace(paths))) {
        warn("cannot write harness trace to '%s'", opts.path.c_str());
        return false;
    }
    debugLog("harness trace -> %s", opts.path.c_str());
    return true;
}

void
applySweepObservability(const Config &cfg,
                        const std::string &benchName,
                        const SweepReport &report)
{
    writeBenchJson(benchJsonOptionsFromConfig(cfg), benchName, report);
    if (cfg.getBool("dump_stats", false)) {
        StatRegistry agg = report.aggregateStats();
        sim::describeRunStats(agg);
        dumpStatsIfRequested(cfg, agg);
    }
    writeHarnessTrace(harnessTraceOptionsFromConfig(cfg));
}

} // namespace manna::harness
