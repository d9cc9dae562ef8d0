/**
 * @file
 * Tier-1 tests for the simulation service (docs/SERVICE.md): the
 * MNRQ/MNRS framing protocol and job codec (harness/proto.*), the
 * persistent work-stealing pool (harness/worker_pool.*), and the
 * daemon + client pair (harness/server.*, harness/client.*).
 *
 * The headline invariant: routing a sweep through one daemon or a
 * server= list of several must not change what it produces. Every
 * e2e test compares hexfloat-exact encodeResult() payloads between an
 * in-process runChecked() and the same jobs through live daemons on
 * Unix sockets — including under an injected pool-worker crash, a
 * torn result frame, and daemons that abort or stall mid-sweep. The
 * abort and stall tests spawn real mannad processes (an abort takes
 * the whole process down); the rest run Servers in-process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "arch/manna_config.hh"
#include "common/config.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/net.hh"
#include "common/strutil.hh"
#include "common/subprocess.hh"
#include "harness/client.hh"
#include "harness/journal.hh"
#include "harness/observe.hh"
#include "harness/proto.hh"
#include "harness/server.hh"
#include "harness/sweep.hh"
#include "harness/worker_pool.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{
namespace
{

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    return strformat("/tmp/manna-svc-test-%d-%d.sock",
                     static_cast<int>(::getpid()),
                     counter.fetch_add(1));
}

/** The mini-sweep the e2e tests run both ways: one tiny benchmark at
 * two tile counts and three seeds. */
std::vector<SweepJob>
miniSweep()
{
    std::vector<SweepJob> jobs;
    const auto bench = workloads::tinyBenchmark();
    for (std::size_t tiles : {4u, 8u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            jobs.push_back({bench, arch::MannaConfig::withTiles(tiles),
                            2, seed});
    return jobs;
}

/** Hexfloat-exact comparable form of a report's outcomes. */
std::vector<std::string>
outcomeFingerprints(const SweepReport &report)
{
    std::vector<std::string> out;
    for (const JobOutcome &o : report.outcomes) {
        if (o.ok)
            out.push_back(encodeResult(o.value));
        else
            out.push_back("FAILED " + o.error.message);
    }
    return out;
}

/** RAII daemon for the e2e tests. */
class ScopedServer
{
  public:
    explicit ScopedServer(server::ServerOptions opts)
        : server_(std::move(opts))
    {
        server_.start();
    }
    ~ScopedServer() { server_.stop(); }
    server::Server &operator*() { return server_; }
    server::Server *operator->() { return &server_; }

  private:
    server::Server server_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** RAII mannad child process on a private Unix socket, for the
 * faults that abort or wedge the whole daemon. */
class SpawnedDaemon
{
  public:
    explicit SpawnedDaemon(const std::string &faults = "",
                           const std::string &events = "")
        : address_("unix:" + uniqueSocketPath()),
          errPath_(uniqueSocketPath() + ".err")
    {
        // An injected abort must not leave a core file behind.
        const struct rlimit noCore = {0, 0};
        ::setrlimit(RLIMIT_CORE, &noCore);
        std::vector<std::string> argv{MANNA_MANNAD_PATH,
                                      "server=" + address_, "pool=2"};
        if (!faults.empty())
            argv.push_back("faults=" + faults);
        if (!events.empty())
            argv.push_back("events=" + events);
        pid_ = spawnProcess(argv, "/dev/null", errPath_);
        EXPECT_GT(pid_, 0);
        std::string err;
        for (int i = 0; i < 100 && !client::pingServer(address_, &err);
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_TRUE(client::pingServer(address_, &err)) << err;
    }

    ~SpawnedDaemon()
    {
        status();
        std::remove(address_.substr(5).c_str());
        std::remove(errPath_.c_str());
    }

    const std::string &address() const { return address_; }

    /** Stop the daemon if still running and return how it ended. */
    ProcessStatus
    status()
    {
        if (pid_ > 0) {
            killProcess(pid_, SIGTERM);
            status_ = waitProcess(pid_);
            pid_ = -1;
        }
        return status_;
    }

    std::string stderrText() const { return readFile(errPath_); }

  private:
    std::string address_;
    std::string errPath_;
    pid_t pid_ = -1;
    ProcessStatus status_;
};

/** The deterministic prefix of a stats/bench_json document: the
 * content up to its wall-clock section. */
std::string
deterministicPrefix(const std::string &doc, const char *wallKey)
{
    const auto pos = doc.find(wallKey);
    EXPECT_NE(pos, std::string::npos) << doc;
    return doc.substr(0, pos);
}

// -- address parsing ---------------------------------------------------

TEST(NetAddress, ParsesUnixTcpAndBareForms)
{
    const net::NetAddress u = net::parseAddress("unix:/tmp/x.sock");
    EXPECT_EQ(u.kind, net::NetAddress::Kind::Unix);
    EXPECT_EQ(u.path, "/tmp/x.sock");

    const net::NetAddress bare = net::parseAddress("/tmp/y.sock");
    EXPECT_EQ(bare.kind, net::NetAddress::Kind::Unix);
    EXPECT_EQ(bare.path, "/tmp/y.sock");

    const net::NetAddress t = net::parseAddress("tcp:127.0.0.1:8421");
    EXPECT_EQ(t.kind, net::NetAddress::Kind::Tcp);
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 8421);

    EXPECT_THROW(net::parseAddress(""), ConfigError);
    EXPECT_THROW(net::parseAddress("tcp:localhost"), ConfigError);
    EXPECT_THROW(net::parseAddress("tcp:localhost:notaport"),
                 ConfigError);
    EXPECT_THROW(net::parseAddress("carrier-pigeon:coop"),
                 ConfigError);
}

// -- framing -----------------------------------------------------------

TEST(Proto, FrameRoundTripsThroughEncodeDecode)
{
    proto::Frame in;
    in.request = true;
    in.type = proto::MsgType::Submit;
    in.payload = "id 7 priority -3 job 5:hello";
    const std::string bytes = proto::encodeFrame(in);
    ASSERT_GE(bytes.size(), proto::kHeaderBytes);

    proto::Frame out;
    EXPECT_EQ(proto::decodeFrame(bytes, true, &out),
              proto::ReadStatus::Ok);
    EXPECT_TRUE(out.request);
    EXPECT_EQ(out.type, proto::MsgType::Submit);
    EXPECT_EQ(out.payload, in.payload);

    // Empty payloads are legal (Ping/Pong).
    proto::Frame ping;
    ping.request = false;
    ping.type = proto::MsgType::Pong;
    proto::Frame ping2;
    EXPECT_EQ(proto::decodeFrame(proto::encodeFrame(ping), false,
                                 &ping2),
              proto::ReadStatus::Ok);
    EXPECT_EQ(ping2.payload, "");
}

TEST(Proto, TruncationIsTornAndCorruptionIsBad)
{
    proto::Frame in;
    in.type = proto::MsgType::Submit;
    in.payload = "some payload bytes";
    const std::string bytes = proto::encodeFrame(in);

    proto::Frame out;
    // Every strict prefix is Torn, never Ok, never Bad-with-garbage.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut)
        EXPECT_EQ(proto::decodeFrame(bytes.substr(0, cut), true, &out),
                  proto::ReadStatus::Torn)
            << "cut=" << cut;

    // Any single bit flip is rejected. Everywhere it reads as Bad
    // (magic/version/type and payload are under the checksum); a flip
    // inside the length field (bytes 8..11) may instead read as Torn,
    // because a length claiming more bytes than arrived is
    // indistinguishable from a peer dying mid-frame.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x10);
        std::string err;
        const proto::ReadStatus st =
            proto::decodeFrame(bad, true, &out, &err);
        EXPECT_NE(st, proto::ReadStatus::Ok) << "byte=" << i;
        if (i < 8 || i >= 12) {
            EXPECT_EQ(st, proto::ReadStatus::Bad) << "byte=" << i;
            EXPECT_FALSE(err.empty());
        }
    }

    // Response magic where a request is expected: a misdirected frame.
    proto::Frame resp;
    resp.request = false;
    resp.type = proto::MsgType::Pong;
    EXPECT_EQ(proto::decodeFrame(proto::encodeFrame(resp), true, &out),
              proto::ReadStatus::Bad);
}

TEST(Proto, FieldReaderParsesAndRejects)
{
    std::string payload = "id 42 name ";
    proto::appendSized(payload, "space separated bytes");
    {
        proto::FieldReader r(payload);
        r.expect("id");
        EXPECT_EQ(r.u64(), 42u);
        r.expect("name");
        EXPECT_EQ(r.sized(), "space separated bytes");
        EXPECT_TRUE(r.ok());
    }
    {
        proto::FieldReader r(payload);
        r.expect("bogus");
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error().empty());
    }
    {
        proto::FieldReader r("id notanumber");
        r.expect("id");
        (void)r.u64();
        EXPECT_FALSE(r.ok());
    }
    {
        // Sized field whose length overruns the payload.
        proto::FieldReader r("name 999:short");
        r.expect("name");
        (void)r.sized();
        EXPECT_FALSE(r.ok());
    }
}

// -- job codec ---------------------------------------------------------

TEST(Proto, JobCodecRoundTripsExactly)
{
    for (const SweepJob &job : miniSweep()) {
        const std::string text = proto::encodeJob(job);
        std::string err;
        const auto decoded = proto::decodeJob(text, &err);
        ASSERT_TRUE(decoded.has_value()) << err;
        EXPECT_EQ(decoded->fingerprint(), job.fingerprint());
        EXPECT_EQ(decoded->steps, job.steps);
        EXPECT_EQ(decoded->seed, job.seed);
        EXPECT_EQ(decoded->label(), job.label());
        // Same wire form when re-encoded: the codec is canonical.
        EXPECT_EQ(proto::encodeJob(*decoded), text);
    }
}

TEST(Proto, TamperedJobPayloadFailsTheFingerprintCheck)
{
    SweepJob job = miniSweep()[0];
    const std::string text = proto::encodeJob(job);

    // Flip a numeric field (steps) without updating the fingerprint:
    // the daemon must refuse to simulate the wrong point.
    const auto pos = text.find("steps 2");
    ASSERT_NE(pos, std::string::npos) << text;
    std::string tampered = text;
    tampered[pos + 6] = '3';
    std::string err;
    EXPECT_FALSE(proto::decodeJob(tampered, &err).has_value());
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;

    EXPECT_FALSE(proto::decodeJob("job v9 what", &err).has_value());
    EXPECT_FALSE(proto::decodeJob("", &err).has_value());
}

// -- worker pool -------------------------------------------------------

TEST(WorkerPool, ExecutesEverythingAcrossWorkers)
{
    WorkerPool pool(4);
    pool.start();
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(pool.completed(), 100u);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    std::uint64_t executed = 0;
    for (std::size_t w = 0; w < pool.workers(); ++w)
        executed += pool.executedBy(w);
    EXPECT_EQ(executed, 100u);
    pool.stop();
}

TEST(WorkerPool, IdleWorkersStealPinnedBacklog)
{
    WorkerPool pool(3);
    pool.start();
    std::atomic<int> ran{0};
    // Pin everything to worker 0: progress on workers 1/2 can only
    // come from stealing. Make each task slow enough that worker 0
    // cannot drain its own queue before the thieves wake up.
    for (int i = 0; i < 24; ++i)
        pool.submitTo(0, [&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ran.fetch_add(1);
        });
    pool.drain();
    EXPECT_EQ(ran.load(), 24);
    EXPECT_GT(pool.steals(), 0u);
    EXPECT_GT(pool.executedBy(1) + pool.executedBy(2), 0u);
    pool.stop();
}

TEST(WorkerPool, InjectedCrashRequeuesTheTask)
{
    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::PoolWorkerCrash)),
        0);
    WorkerPool pool(2);
    pool.start();
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.drain();
    fault::reset();
    // The crashed pickup re-queued its task: nothing was lost, and
    // the restart is visible in the counter the metrics JSONL samples.
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(pool.completed(), 8u);
    EXPECT_EQ(pool.restarts(), 1u);
    pool.stop();
}

// -- options parsing ---------------------------------------------------

TEST(ServerOptions, ParsedFromConfigKnobs)
{
    Config cfg;
    cfg.set("server", "unix:/tmp/svc.sock");
    cfg.set("pool", "3");
    cfg.set("queue_depth", "17");
    cfg.set("clients", "5");
    cfg.set("metrics_interval", "0.25");
    const server::ServerOptions o = server::serverOptionsFromConfig(cfg);
    EXPECT_EQ(o.address, "unix:/tmp/svc.sock");
    EXPECT_EQ(o.pool, 3u);
    EXPECT_EQ(o.queueDepth, 17u);
    EXPECT_EQ(o.maxClients, 5u);
    EXPECT_DOUBLE_EQ(o.metricsIntervalSeconds, 0.25);
}

TEST(ServerOptions, DaemonListIsAConfigError)
{
    // Clients take a server= list; a daemon listens on one address,
    // so a list from either source is refused, not bound as a path.
    Config cfg;
    cfg.set("server", "unix:/tmp/a.sock,unix:/tmp/b.sock");
    EXPECT_THROW(server::serverOptionsFromConfig(cfg), ConfigError);
    ::setenv("MANNA_SERVER", "unix:/tmp/a.sock,unix:/tmp/b.sock", 1);
    EXPECT_THROW(server::serverOptionsFromConfig(Config{}),
                 ConfigError);
    ::unsetenv("MANNA_SERVER");
}

TEST(ServerOptions, ServiceKnobTableIsNonEmptyAndUnique)
{
    ASSERT_GT(server::kNumServiceKnobs, 0u);
    for (std::size_t i = 0; i < server::kNumServiceKnobs; ++i)
        for (std::size_t j = i + 1; j < server::kNumServiceKnobs; ++j)
            EXPECT_STRNE(server::kServiceKnobs[i],
                         server::kServiceKnobs[j]);
}

// -- end to end --------------------------------------------------------

TEST(Service, DaemonSweepMatchesInProcessByteForByte)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
    EXPECT_EQ(daemon->failedJobs(), 0u);
    for (const JobOutcome &o : viaDaemon.outcomes)
        EXPECT_EQ(o.attempts, 1u);
}

TEST(Service, RunCheckedRoutesOnTheServerKnob)
{
    // The sweep-level entry point: runChecked() with opts.server set
    // must transparently go through the daemon.
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon = runner.runChecked(jobs, opts);
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
}

TEST(Service, ResubmittedFingerprintsAreAnsweredFromTheResultCache)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport first =
        client::runServerSweep(runner, jobs, opts);
    const SweepReport second =
        client::runServerSweep(runner, jobs, opts);
    EXPECT_EQ(outcomeFingerprints(first), outcomeFingerprints(second));
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
    EXPECT_EQ(daemon->journalHits(), jobs.size());
}

TEST(Service, AdmissionControlSendsRetryAfterAndStillCompletes)
{
    const auto jobs = miniSweep();
    SweepRunner runner(4);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 1;
    sopts.queueDepth = 1; // near-everything bounces at least once
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_GT(daemon->retryAfterCount(), 0u);
    // RetryAfter is backpressure, not a failure: still one attempt.
    for (const JobOutcome &o : viaDaemon.outcomes)
        EXPECT_EQ(o.attempts, 1u);
}

TEST(Service, InjectedWorkerCrashKeepsResultsIdentical)
{
    const auto jobs = miniSweep();
    // jobs=1 runs the client inline, so the armed pool site can only
    // fire in the daemon's pool.
    SweepRunner runner(1);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::PoolWorkerCrash)),
        0);
    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    fault::reset();

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_EQ(daemon->pool().restarts(), 1u);
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
}

TEST(Service, TornResultFrameIsRetransparentToTheClient)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    // The daemon's first streaming send tears mid-frame. The client
    // reconnects, resubmits, and the result cache answers — the sweep
    // still resolves every job identically.
    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::ServerFrameTorn)),
        0);
    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    fault::reset();

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
}

TEST(Service, ControlPlanePingStatsShutdown)
{
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 1;
    ScopedServer daemon(sopts);

    std::string err;
    EXPECT_TRUE(client::pingServer(daemon->boundAddress(), &err))
        << err;

    const std::string stats =
        client::fetchServerStats(daemon->boundAddress());
    EXPECT_NE(stats.find("manna-daemon-stats-v1"), std::string::npos);
    EXPECT_NE(stats.find("\"per_worker\""), std::string::npos);

    client::requestServerShutdown(daemon->boundAddress());
    for (int i = 0; i < 100 && !daemon->stopping(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(daemon->stopping());

    // A dead endpoint pings false instead of throwing.
    EXPECT_FALSE(
        client::pingServer("unix:/tmp/manna-svc-nowhere.sock", &err));
    EXPECT_FALSE(err.empty());
}

// -- several daemons (server=A,B,C) ------------------------------------

TEST(DaemonList, OneAndThreeDaemonsMatchInProcessByteForByte)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.pool = 2;
    sopts.address = uniqueSocketPath();
    ScopedServer solo(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer a(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer b(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer c(sopts);

    SweepOptions opts;
    opts.server = solo->boundAddress();
    const SweepReport one = runner.runChecked(jobs, opts);
    opts.server = a->boundAddress() + "," + b->boundAddress() + "," +
                  c->boundAddress();
    const SweepReport three = runner.runChecked(jobs, opts);

    EXPECT_EQ(outcomeFingerprints(plain), outcomeFingerprints(one));
    EXPECT_EQ(outcomeFingerprints(plain), outcomeFingerprints(three));
    // Job i goes to daemon i mod 3: six jobs, two each.
    EXPECT_EQ(a->completedJobs(), 2u);
    EXPECT_EQ(b->completedJobs(), 2u);
    EXPECT_EQ(c->completedJobs(), 2u);
}

TEST(DaemonList, CrashedDaemonsJobsMoveToTheNextLiveDaemon)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    // A aborts on its first job pickup, like a kill -9 or OOM kill.
    SpawnedDaemon a("server.crash:once@1");
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer b(sopts);

    SweepOptions opts;
    opts.retries = 0;
    opts.server = a.address() + "," + b->boundAddress();
    testing::internal::CaptureStderr();
    const SweepReport report = runner.runChecked(jobs, opts);
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(outcomeFingerprints(plain), outcomeFingerprints(report));
    // Failover happens inside the attempt: no retry was spent, and
    // the 10 s reconnect budget was not waited out.
    for (const JobOutcome &o : report.outcomes)
        EXPECT_EQ(o.attempts, 1u);
    EXPECT_LT(report.wallSeconds, 5.0);
    EXPECT_EQ(b->completedJobs(), jobs.size());
    EXPECT_NE(err.find("resubmitting it to the next live daemon"),
              std::string::npos)
        << err;
    const ProcessStatus st = a.status();
    EXPECT_TRUE(st.signaled && st.signal == SIGABRT);
}

TEST(DaemonList, PartialCrashKeepsJournaledResults)
{
    const auto jobs = miniSweep();
    SweepRunner runner(1);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    // A answers its first job, then aborts on the next pickup.
    SpawnedDaemon a("server.crash:once@2");
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer b(sopts);

    const std::string journal = uniqueSocketPath() + ".journal";
    SweepOptions opts;
    opts.server = a.address() + "," + b->boundAddress();
    opts.journalPath = journal;
    const SweepReport report = runner.runChecked(jobs, opts);
    EXPECT_EQ(outcomeFingerprints(plain), outcomeFingerprints(report));
    EXPECT_TRUE(a.status().signaled);
    EXPECT_EQ(b->completedJobs(), jobs.size() - 1);

    // Every completed job is journaled exactly once.
    JournalLoadStats stats;
    const auto restored = loadJournal(journal, &stats);
    EXPECT_EQ(stats.records, jobs.size());
    EXPECT_EQ(stats.corruptRecords, 0u);
    EXPECT_EQ(restored.size(), jobs.size());

    SweepOptions resume;
    resume.resumeFrom = journal;
    const SweepReport resumed = runner.runChecked(jobs, resume);
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(resumed));
    for (const JobOutcome &o : resumed.outcomes)
        EXPECT_TRUE(o.fromJournal);
    std::remove(journal.c_str());
}

TEST(DaemonList, StatsAndBenchJsonMatchInProcess)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.pool = 2;
    sopts.address = uniqueSocketPath();
    ScopedServer a(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer b(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer c(sopts);
    SweepOptions opts;
    opts.server = a->boundAddress() + "," + b->boundAddress() + "," +
                  c->boundAddress();
    const SweepReport three = runner.runChecked(jobs, opts);

    // Deterministic sections (job tallies + counters) match exactly;
    // the trailing wall-clock sections differ.
    EXPECT_EQ(deterministicPrefix(renderSweepStats(plain),
                                  "\"throughput\""),
              deterministicPrefix(renderSweepStats(three),
                                  "\"throughput\""));
    EXPECT_EQ(deterministicPrefix(renderBenchJson("mini", plain),
                                  "\"wall\""),
              deterministicPrefix(renderBenchJson("mini", three),
                                  "\"wall\""));
}

TEST(DaemonList, StalledDaemonIsMarkedDownAndTheRetryMovesOn)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    // A's first job wedges its pool thread: no reply, cancel ignored.
    SpawnedDaemon a("server.stall:once@1");
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer b(sopts);

    SweepOptions opts;
    opts.server = a.address() + "," + b->boundAddress();
    opts.timeoutSeconds = 1.0;
    opts.retries = 1;
    testing::internal::CaptureStderr();
    const SweepReport report = runner.runChecked(jobs, opts);
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(outcomeFingerprints(plain), outcomeFingerprints(report));
    EXPECT_EQ(report.watchdogCancellations, 1u);
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
    EXPECT_NE(err.find("did not confirm a cancel in time; marking it "
                       "down"),
              std::string::npos)
        << err;
    EXPECT_NE(a.stderrText().find("stalled (injected)"),
              std::string::npos);
}

TEST(DaemonList, JobLostOnTwoDaemonsIsPoisoned)
{
    const auto jobs = miniSweep();
    SweepRunner runner(1);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    // Job 0 goes to A, which aborts; then to B, which aborts too.
    SpawnedDaemon a("server.crash:once@1");
    SpawnedDaemon b("server.crash:once@1");
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer c(sopts);

    SweepOptions opts;
    opts.retries = 0;
    opts.server =
        a.address() + "," + b.address() + "," + c->boundAddress();
    testing::internal::CaptureStderr();
    const SweepReport report = runner.runChecked(jobs, opts);
    testing::internal::GetCapturedStderr();

    const JobOutcome &poisoned = report.outcomes[0];
    ASSERT_FALSE(poisoned.ok);
    EXPECT_EQ(poisoned.error.kind, ErrorKind::Io);
    EXPECT_NE(poisoned.error.message.find("poisoned"),
              std::string::npos);
    EXPECT_NE(poisoned.error.message.find(a.address().substr(5)),
              std::string::npos)
        << poisoned.error.message;
    EXPECT_NE(poisoned.error.message.find(b.address().substr(5)),
              std::string::npos)
        << poisoned.error.message;
    // Every other job was answered by C, bit-exactly.
    const auto want = outcomeFingerprints(plain);
    const auto got = outcomeFingerprints(report);
    for (std::size_t i = 1; i < jobs.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << i;
    EXPECT_EQ(c->completedJobs(), jobs.size() - 1);
    EXPECT_EQ(report.failures(), 1u);
    testing::internal::CaptureStdout();
    EXPECT_EQ(finishSweep(report), 1); // the bench exits nonzero
    testing::internal::GetCapturedStdout();
}

TEST(DaemonList, DaemonEventsAreOnDiskWhenTheSweepReturns)
{
    // The client merges a daemon's event file right after the sweep;
    // the daemon must have written its spans by then, not at its next
    // batch flush or at shutdown.
    const std::string events = uniqueSocketPath() + ".events";
    {
        SpawnedDaemon a("", events);
        SweepRunner runner(1);
        SweepOptions opts;
        opts.server = a.address();
        const SweepReport report = runner.runChecked(miniSweep(), opts);
        EXPECT_TRUE(report.allOk());
        const std::string text = readFile(events);
        EXPECT_NE(text.find("\"server.conn\""), std::string::npos)
            << text;
        EXPECT_NE(text.find("\"job.enqueue\""), std::string::npos)
            << text;
    }
    std::remove(events.c_str());
}

TEST(DaemonList, SubmitControlCommandsActOnEveryListedDaemon)
{
    server::ServerOptions sopts;
    sopts.pool = 1;
    sopts.address = uniqueSocketPath();
    ScopedServer a(sopts);
    sopts.address = uniqueSocketPath();
    ScopedServer b(sopts);
    const std::string both = a->boundAddress() + "," + b->boundAddress();
    const std::string outPath = uniqueSocketPath() + ".out";
    auto submit = [&outPath](const std::string &list,
                             const char *command) {
        std::remove(outPath.c_str()); // spawnProcess appends
        const pid_t pid = spawnProcess(
            {MANNA_SUBMIT_PATH, "server=" + list, command}, outPath,
            "/dev/null");
        EXPECT_GT(pid, 0);
        return waitProcess(pid);
    };

    EXPECT_TRUE(submit(both, "ping").cleanExit(0));
    const std::string pings = readFile(outPath);
    EXPECT_NE(pings.find(a->boundAddress() + ": ok"), std::string::npos)
        << pings;
    EXPECT_NE(pings.find(b->boundAddress() + ": ok"), std::string::npos)
        << pings;
    // ping succeeds only when every listed daemon answers.
    const ProcessStatus partial =
        submit(both + ",unix:/tmp/manna-svc-nowhere.sock", "ping");
    EXPECT_TRUE(partial.exited);
    EXPECT_EQ(partial.exitCode, 1);

    EXPECT_TRUE(submit(both, "stats").cleanExit(0));
    const std::string stats = readFile(outPath);
    EXPECT_NE(stats.find("manna-daemon-stats-v1"),
              stats.rfind("manna-daemon-stats-v1"))
        << "want one snapshot per daemon: " << stats;

    EXPECT_TRUE(submit(both, "shutdown").cleanExit(0));
    for (int i = 0; i < 100 && !(a->stopping() && b->stopping()); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(a->stopping());
    EXPECT_TRUE(b->stopping());
    std::remove(outPath.c_str());
}

} // namespace
} // namespace manna::harness
