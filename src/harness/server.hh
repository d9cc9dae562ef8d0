/**
 * @file
 * mannad — the simulation-as-a-service daemon (docs/SERVICE.md).
 *
 * A Server listens on a Unix or TCP socket (common/net.hh), speaks
 * the MNRQ/MNRS framing protocol (harness/proto.hh), and executes
 * submitted sweep jobs on a persistent work-stealing pool
 * (harness/worker_pool.hh). Scheduling is two-level:
 *
 *  - per client, a priority-ordered pending queue with admission
 *    control: once the total backlog reaches `queue_depth=`, new
 *    submissions get an explicit RetryAfter instead of silently
 *    queueing without bound;
 *  - across clients, deficit round-robin: each scheduling pass grants
 *    every backlogged client a quantum of cost units (job cost =
 *    max(1, steps)), so one client bulk-submitting a sweep cannot
 *    starve another's interactive run.
 *
 * The daemon executes exactly ONE attempt per submission and streams
 * the hexfloat-exact result (journal.hh encodeResult) back as soon as
 * it completes — retries, backoff, watchdog timeouts, and journaling
 * stay client-side in runIsolated(), which is what keeps a `server=`
 * run byte-identical to the same sweep in-process. A client that
 * disconnects (crash, SIGTERM) has its queued jobs dropped and its
 * running jobs cancelled through their CancelTokens.
 *
 * An in-memory result cache answers a resubmitted fingerprint without
 * re-running it (for the daemon's lifetime only; nothing is kept on
 * disk); metrics= appends a manna-daemon-metrics-v1 JSONL series and
 * stats= writes the final manna-daemon-stats-v1 snapshot (both in
 * docs/FORMATS.md).
 */

#ifndef MANNA_HARNESS_SERVER_HH
#define MANNA_HARNESS_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/net.hh"
#include "harness/worker_pool.hh"

namespace manna
{
class Config;
}

namespace manna::harness::server
{

/** Knob names the daemon accepts, linted two-way against the knob
 * table in docs/SERVICE.md by scripts/check_docs.sh. */
extern const char *const kServiceKnobs[];
extern const std::size_t kNumServiceKnobs;

struct ServerOptions
{
    /** Listen endpoint (net::parseAddress form). */
    std::string address;

    /** Pool workers; 0 selects defaultJobs(). */
    std::size_t pool = 0;

    /** Admission bound: total queued (not yet dispatched) jobs
     * across all clients before submissions get RetryAfter. */
    std::size_t queueDepth = 64;

    /** Max concurrently connected clients; further connections are
     * rejected at the protocol level. */
    std::size_t maxClients = 16;

    /** Final manna-daemon-stats-v1 snapshot path ("" disables). */
    std::string statsPath;

    /** manna-daemon-metrics-v1 JSONL path ("" disables) + interval. */
    std::string metricsPath;
    double metricsIntervalSeconds = 1.0;

    /** Event-log file this daemon writes (advertised to clients in
     * HelloOk so they can merge it into their harness trace). */
    std::string eventsPath;

    /** Entry bound of the compile cache and of the result cache, each
     * least-recently-used (0 = unbounded). */
    std::size_t cacheEntries = 0;
};

/** Parse the daemon knobs: server=, pool=, queue_depth=, clients=,
 * stats=, metrics=, metrics_interval=, cache_entries= — with MANNA_*
 * environment twins where the in-process sweep has them — and arm
 * the process-wide fault/event/artifact-cache machinery exactly like
 * sweepOptionsFromConfig. Throws ConfigError when server= (or
 * MANNA_SERVER) is a comma-separated list. */
ServerOptions serverOptionsFromConfig(const Config &cfg);

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the accept/dispatch/metrics threads.
     * Throws IoError when the endpoint cannot be bound. */
    void start();

    /** Graceful stop: close the listener, cancel running jobs, drop
     * queued ones, join every thread, write stats=. Idempotent. */
    void stop();

    /** Block until a client asked for Shutdown (or stop() ran). */
    void wait();

    /** True once shutdown was requested or performed. */
    bool stopping() const;

    /** Canonical text form of the bound endpoint. */
    std::string boundAddress() const;

    /** The manna-daemon-stats-v1 snapshot (docs/FORMATS.md). */
    std::string statsJson() const;

    // Counter peeks for tests.
    std::uint64_t acceptedConnections() const;
    std::uint64_t completedJobs() const;
    std::uint64_t failedJobs() const;
    std::uint64_t cancelledJobs() const;
    std::uint64_t retryAfterCount() const;
    std::uint64_t journalHits() const; ///< result-cache hits
    const WorkerPool &pool() const { return *pool_; }

  private:
    struct Conn;
    struct Pending;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void dispatchLoop();
    void metricsLoop();
    void executeJob(std::shared_ptr<Conn> conn, Pending pending,
                    std::shared_ptr<CancelToken> token);
    void handleSubmit(const std::shared_ptr<Conn> &conn,
                      const std::string &payload);
    void handleCancel(const std::shared_ptr<Conn> &conn,
                      const std::string &payload);
    void closeConn(const std::shared_ptr<Conn> &conn);
    std::size_t queuedTotalLocked() const;

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace manna::harness::server

#endif // MANNA_HARNESS_SERVER_HH
