#include "client.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/event_log.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "common/strutil.hh"
#include "harness/journal.hh"
#include "harness/proto.hh"

namespace manna::harness::client
{

namespace
{

/** Connection-establishment budget: the daemon may still be coming
 * up (service_smoke.sh starts it in the background) or restarting
 * between resubmissions. */
constexpr int kConnectAttempts = 100;
constexpr int kConnectBackoffMs = 100;

/** Full submit→terminal cycles per execute() call before the
 * attempt is surfaced as IoError (runIsolated's retry policy then
 * decides whether the job gets another one). */
constexpr int kMaxResubmits = 5;

/** Daemons a job may be lost on (in flight when the daemon crashed
 * or went silent) before it is poisoned: it then fails with IoError
 * instead of taking down daemon after daemon. Lost daemons stay down
 * for the rest of the sweep, so this bound makes a sweep over a
 * daemon list terminate. */
constexpr std::size_t kMaxLostDaemons = 2;

ErrorKind
kindFromWire(std::string_view text)
{
    if (text == toString(ErrorKind::Config))
        return ErrorKind::Config;
    if (text == toString(ErrorKind::Assembly))
        return ErrorKind::Assembly;
    if (text == toString(ErrorKind::Io))
        return ErrorKind::Io;
    return ErrorKind::Sim;
}

/**
 * One connection to mannad shared by every sweep worker thread: a
 * background receiver routes response frames to per-job slots; a
 * lost connection bumps the generation counter so blocked executors
 * either fail over to another daemon or reconnect and resubmit.
 */
class DaemonClient
{
  public:
    /** Result of one execute() call. An empty result means this
     * daemon is down and the job should go to another one. */
    struct Outcome
    {
        std::optional<MannaResult> result;
        bool inFlight = false; ///< the job was submitted before the loss
    };

    /** Asked on a connection loss: true when another daemon can take
     * the job, so this one is marked down instead of reconnected. */
    using FailoverFn = std::function<bool()>;

    DaemonClient(net::NetAddress addr, std::string name)
        : addr_(std::move(addr)), name_(std::move(name))
    {}

    ~DaemonClient()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shuttingDown_ = true;
            if (fd_ >= 0)
                ::shutdown(fd_, SHUT_RDWR);
        }
        if (receiver_.joinable())
            receiver_.join();
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    Outcome
    execute(const SweepJob &job, std::uint64_t id,
            const CancelToken &token, const FailoverFn &canFailOver)
    {
        std::string submit = strformat(
            "id %llu priority 0 job ",
            static_cast<unsigned long long>(id));
        proto::appendSized(submit, proto::encodeJob(job));

        bool submitted = false;
        for (int cycle = 0; cycle < kMaxResubmits; ++cycle) {
            if (token.cancelled())
                throw SimError("job cancelled before submission");
            // A dropped connection is only re-established when no
            // other daemon can take the job.
            if (down() || (lostConnection() && canFailOver())) {
                markDown();
                return {std::nullopt, submitted};
            }
            if (!ensureConnected()) {
                if (canFailOver()) {
                    markDown();
                    return {std::nullopt, submitted};
                }
                throw IoError(strformat("cannot reach mannad at %s",
                                        addr_.describe().c_str()));
            }
            std::uint64_t gen;
            {
                std::lock_guard<std::mutex> lock(mu_);
                gen = generation_;
                slots_[id] = Slot{};
            }
            if (!sendRequest(proto::MsgType::Submit, submit))
                continue; // connection just died; reconnect & retry
            submitted = true;

            bool cancelSent = false;
            auto cancelDeadline =
                std::chrono::steady_clock::time_point::max();
            std::unique_lock<std::mutex> lock(mu_);
            while (true) {
                Slot &slot = slots_[id];
                if (slot.done) {
                    const Slot out = std::move(slot);
                    slots_.erase(id);
                    lock.unlock();
                    if (out.ok) {
                        auto result = decodeResult(out.resultText);
                        if (!result)
                            throw IoError(
                                "daemon returned a malformed "
                                "result payload");
                        return {std::move(result), true};
                    }
                    throw Error(out.kind, out.message,
                                ErrorContext{job.fingerprint(),
                                             job.label()});
                }
                if (slot.retryAfterMs > 0) {
                    const std::uint64_t delay = slot.retryAfterMs;
                    slot.retryAfterMs = 0;
                    lock.unlock();
                    // Admission pushback is flow control, not a
                    // failure: wait as told, then resubmit.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(delay));
                    sendRequest(proto::MsgType::Submit, submit);
                    lock.lock();
                    continue;
                }
                if (generation_ != gen) {
                    slots_.erase(id);
                    break; // reconnect + resubmit
                }
                if (token.cancelled() && !cancelSent) {
                    lock.unlock();
                    sendRequest(
                        proto::MsgType::Cancel,
                        strformat("id %llu",
                                  static_cast<unsigned long long>(
                                      id)));
                    cancelSent = true;
                    cancelDeadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
                    lock.lock();
                    continue;
                }
                if (cancelSent && std::chrono::steady_clock::now() >
                                      cancelDeadline) {
                    slots_.erase(id);
                    lock.unlock();
                    if (canFailOver()) {
                        warn("mannad at %s did not confirm a cancel "
                             "in time; marking it down",
                             addr_.describe().c_str());
                        markDown();
                    }
                    throw SimError(
                        "job cancelled; daemon did not confirm in "
                        "time");
                }
                cv_.wait_for(lock, std::chrono::milliseconds(20));
            }
            if (token.cancelled())
                throw SimError("job cancelled during daemon "
                               "reconnection");
        }
        throw IoError(strformat(
            "connection to %s kept failing; giving up this attempt",
            addr_.describe().c_str()));
    }

    std::string describe() const { return addr_.describe(); }

    bool down() const { return down_.load(); }

    /** True once this daemon's event file joined the trace merge. */
    bool
    eventsRegistered()
    {
        std::lock_guard<std::mutex> serial(connectMu_);
        return eventsRegistered_;
    }

    /** Take this daemon out of the rotation for the rest of the
     * sweep (idempotent; warns once). */
    void
    markDown()
    {
        if (!down_.exchange(true))
            warn("mannad at %s is down; failing over to the other "
                 "daemons",
                 addr_.describe().c_str());
    }

  private:
    struct Slot
    {
        bool done = false;
        bool ok = false;
        std::string resultText;
        ErrorKind kind = ErrorKind::Sim;
        std::string message;
        std::uint64_t retryAfterMs = 0;
    };

    /** True once a connection of this client has dropped. */
    bool
    lostConnection()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return generation_ > 0;
    }

    /** Serialized (re)connection: connect with retries, handshake,
     * spawn the receiver. Returns false when the connect budget runs
     * out; throws IoError when the handshake fails. */
    bool
    ensureConnected()
    {
        std::lock_guard<std::mutex> serial(connectMu_);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (fd_ >= 0)
                return true;
        }
        if (receiver_.joinable())
            receiver_.join(); // the old receiver has observed the
                              // dead fd and exited (or is about to)
        int fd = -1;
        for (int i = 0; i < kConnectAttempts; ++i) {
            fd = net::connectTo(addr_);
            if (fd >= 0)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kConnectBackoffMs));
        }
        if (fd < 0)
            return false;

        std::string hello = "hello v1 name ";
        proto::appendSized(hello, name_);
        proto::Frame frame{true, proto::MsgType::Hello, hello};
        proto::Frame reply;
        std::string err;
        if (!proto::writeFrame(fd, frame) ||
            proto::readFrame(fd, false, &reply, &err) !=
                proto::ReadStatus::Ok ||
            reply.type != proto::MsgType::HelloOk) {
            ::close(fd);
            throw IoError(strformat(
                "handshake with %s failed%s%s",
                addr_.describe().c_str(), err.empty() ? "" : ": ",
                err.c_str()));
        }
        proto::FieldReader in(reply.payload);
        in.expect("ok");
        in.expect("v1");
        in.expect("pool");
        (void)in.u64();
        in.expect("queue_depth");
        (void)in.u64();
        in.expect("events");
        const std::string daemonEvents = in.sized();
        if (in.ok() && !daemonEvents.empty() &&
            !eventsRegistered_) {
            // The daemon advertises its event-log file: merge it
            // into this client's harness trace so daemon-side spans
            // (server.accept, job.enqueue, job.steal) appear with
            // their own pid track (docs/OBSERVABILITY.md).
            events::EventLog::instance().registerMergeFile(
                daemonEvents);
            eventsRegistered_ = true;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            fd_ = fd;
        }
        receiver_ = std::thread([this] { receiverLoop(); });
        return true;
    }

    bool
    sendRequest(proto::MsgType type, const std::string &payload)
    {
        std::lock_guard<std::mutex> lock(sendMu_);
        int fd;
        {
            std::lock_guard<std::mutex> state(mu_);
            fd = fd_;
        }
        if (fd < 0)
            return false;
        proto::Frame frame{true, type, payload};
        if (!proto::writeFrame(fd, frame)) {
            connectionLost();
            return false;
        }
        return true;
    }

    void
    connectionLost()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ >= 0) {
            ::shutdown(fd_, SHUT_RDWR);
            ::close(fd_);
            fd_ = -1;
        }
        ++generation_;
        cv_.notify_all();
    }

    void
    receiverLoop()
    {
        while (true) {
            int fd;
            {
                std::lock_guard<std::mutex> lock(mu_);
                fd = fd_;
                if (shuttingDown_)
                    return;
            }
            if (fd < 0)
                return;
            proto::Frame frame;
            std::string err;
            const proto::ReadStatus status =
                proto::readFrame(fd, false, &frame, &err);
            if (status != proto::ReadStatus::Ok) {
                if (status == proto::ReadStatus::Bad)
                    warn("daemon sent a bad frame: %s",
                         err.c_str());
                connectionLost();
                return;
            }
            handleResponse(frame);
        }
    }

    void
    handleResponse(const proto::Frame &frame)
    {
        proto::FieldReader in(frame.payload);
        switch (frame.type) {
          case proto::MsgType::Accepted:
            break; // informational
          case proto::MsgType::RetryAfter: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("retry_ms");
            const std::uint64_t ms = in.u64();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.retryAfterMs = ms > 0 ? ms : 1;
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::Result: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("result");
            std::string text = in.sized();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.done = true;
                it->second.ok = true;
                it->second.resultText = std::move(text);
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::JobFailed: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("kind");
            const std::string kind(in.token());
            in.expect("msg");
            std::string msg = in.sized();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.done = true;
                it->second.ok = false;
                it->second.kind = kindFromWire(kind);
                it->second.message = std::move(msg);
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::Reject: {
            proto::FieldReader rej(frame.payload);
            warn("daemon rejected the session: %s",
                 rej.sized().c_str());
            connectionLost();
            break;
          }
          default:
            break; // Pong/StatsReport: not used on this connection
        }
    }

    const net::NetAddress addr_;
    const std::string name_;
    std::mutex connectMu_; ///< serializes reconnection
    std::mutex sendMu_;    ///< serializes frame writes
    std::mutex mu_;        ///< guards fd_/slots_/generation_
    std::condition_variable cv_;
    std::map<std::uint64_t, Slot> slots_;
    std::thread receiver_;
    int fd_ = -1;
    std::uint64_t generation_ = 0;
    bool shuttingDown_ = false;
    bool eventsRegistered_ = false;
    std::atomic<bool> down_{false};
};

/**
 * The daemons of one server= list. Job i goes first to daemon
 * i mod N; a daemon whose connection drops while another is live is
 * marked down and the job moves at once to the next live daemon in
 * ring order, within the same attempt. One address is exactly the
 * single-daemon client: no failover, reconnect within the budget.
 */
class DaemonRing
{
  public:
    DaemonRing(const std::string &spec, std::size_t jobs)
        : lostOn_(jobs)
    {
        const std::string name =
            strformat("client-%ld", static_cast<long>(::getpid()));
        for (const std::string &part : split(spec, ',')) {
            const std::string address = trim(part);
            if (!address.empty())
                daemons_.push_back(std::make_unique<DaemonClient>(
                    net::parseAddress(address), name));
        }
        if (daemons_.empty())
            throw ConfigError(strformat(
                "server=%s names no daemon address", spec.c_str()));
    }

    MannaResult
    execute(const SweepJob &job, std::size_t i,
            const CancelToken &token)
    {
        const std::size_t n = daemons_.size();
        // Only this job's attempts touch lostOn_[i], one at a time.
        std::vector<std::string> &lost = lostOn_[i];
        std::size_t d = i % n;
        while (true) {
            if (lost.size() >= kMaxLostDaemons)
                throw IoError(strformat(
                    "job poisoned: lost in flight on %s and %s; not "
                    "resubmitted",
                    lost[0].c_str(), lost[1].c_str()));
            std::size_t step = 0;
            while (step < n && daemons_[(d + step) % n]->down())
                ++step;
            if (step == n)
                throw IoError("every daemon of server= is down");
            d = (d + step) % n;
            DaemonClient &daemon = *daemons_[d];
            DaemonClient::Outcome out =
                daemon.execute(job, i, token, [this, d] {
                    return anotherLive(d);
                });
            if (out.result)
                return std::move(*out.result);
            if (out.inFlight) {
                lost.push_back(daemon.describe());
                if (lost.size() < kMaxLostDaemons)
                    warn("job #%zu lost on %s; resubmitting it to the "
                         "next live daemon",
                         i, daemon.describe().c_str());
            }
            d = (d + 1) % n;
        }
    }

    /** Ping every daemon whose event file this sweep registered: a
     * daemon flushes its event log before it answers, so the merged
     * trace that follows the sweep holds its spans. */
    void
    flushDaemonEvents()
    {
        for (const auto &daemon : daemons_)
            if (!daemon->down() && daemon->eventsRegistered())
                pingServer(daemon->describe());
    }

  private:
    bool
    anotherLive(std::size_t self) const
    {
        for (std::size_t d = 0; d < daemons_.size(); ++d)
            if (d != self && !daemons_[d]->down())
                return true;
        return false;
    }

    std::vector<std::unique_ptr<DaemonClient>> daemons_;
    std::vector<std::vector<std::string>> lostOn_;
};

/** Short-lived control connection for ping/stats/shutdown. */
proto::Frame
controlRequest(const std::string &address, proto::MsgType type,
               proto::MsgType expectReply)
{
    const net::NetAddress addr = net::parseAddress(address);
    net::ScopedFd fd(net::connectTo(addr));
    if (!fd.valid())
        throw IoError(strformat("cannot reach mannad at %s",
                                addr.describe().c_str()));
    std::string hello = "hello v1 name ";
    proto::appendSized(hello, "manna-submit-control");
    std::string err;
    proto::Frame reply;
    if (!proto::writeFrame(fd.get(),
                           {true, proto::MsgType::Hello, hello}) ||
        proto::readFrame(fd.get(), false, &reply, &err) !=
            proto::ReadStatus::Ok ||
        reply.type != proto::MsgType::HelloOk)
        throw IoError(strformat("handshake with %s failed%s%s",
                                addr.describe().c_str(),
                                err.empty() ? "" : ": ",
                                err.c_str()));
    if (!proto::writeFrame(fd.get(), {true, type, ""}))
        throw IoError("daemon connection lost mid-request");
    if (proto::readFrame(fd.get(), false, &reply, &err) !=
            proto::ReadStatus::Ok ||
        reply.type != expectReply)
        throw IoError(strformat("unexpected daemon reply%s%s",
                                err.empty() ? "" : ": ",
                                err.c_str()));
    return reply;
}

} // namespace

std::string
defaultServerAddress()
{
    const char *v = std::getenv("MANNA_SERVER");
    return v ? v : "";
}

SweepReport
runServerSweep(SweepRunner &runner,
               const std::vector<SweepJob> &jobs,
               const SweepOptions &opts)
{
    DaemonRing daemons(opts.server, jobs.size());

    std::vector<std::string> labels;
    std::vector<std::uint64_t> fingerprints;
    labels.reserve(jobs.size());
    fingerprints.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        labels.push_back(job.label());
        fingerprints.push_back(job.fingerprint());
    }

    SweepReport report = runner.runIsolated(
        jobs.size(),
        [&jobs, &daemons](std::size_t i, const CancelToken &cancel) {
            return daemons.execute(jobs[i], i, cancel);
        },
        labels, fingerprints, opts);
    daemons.flushDaemonEvents();
    return report;
}

bool
pingServer(const std::string &address, std::string *err)
{
    try {
        controlRequest(address, proto::MsgType::Ping,
                       proto::MsgType::Pong);
        return true;
    } catch (const Error &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

std::string
fetchServerStats(const std::string &address)
{
    return controlRequest(address, proto::MsgType::Stats,
                          proto::MsgType::StatsReport)
        .payload;
}

void
requestServerShutdown(const std::string &address)
{
    controlRequest(address, proto::MsgType::Shutdown,
                   proto::MsgType::Pong);
}

} // namespace manna::harness::client
