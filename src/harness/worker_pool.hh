/**
 * @file
 * Persistent work-stealing worker pool for the simulation daemon.
 *
 * Unlike the per-sweep ThreadPool in harness/sweep.hh — which is
 * built, fed one batch, and torn down by every runChecked() call —
 * this pool's threads are long-lived and pull work continuously, with
 * no round barriers: the moment a worker finishes (or is restarted) it
 * takes the next task. Each worker owns a deque; submit() feeds the
 * shortest queue, submitTo() pins a task to a specific worker (the
 * deterministic-steal test hook), and an idle worker steals from the
 * back of the largest victim queue, emitting a `job.steal` instant so
 * merged harness traces show the migration.
 *
 * Tasks carry an optional CancelToken + timeout; a watchdog thread
 * cancels overdue tasks the same way the sweep watchdog does. The
 * `pool.worker.crash` fault site fires at task pickup: the task is
 * requeued, the worker "restarts" (restart counter), and the task
 * re-executes — pure simulation jobs make the retry byte-identical.
 */

#ifndef MANNA_HARNESS_WORKER_POOL_HH
#define MANNA_HARNESS_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hh"

namespace manna::harness
{

class WorkerPool
{
  public:
    /** One unit of pool work. When @p cancel is set and
     * @p timeoutSeconds > 0, the watchdog cancels the token once the
     * task has been running that long. */
    struct Task
    {
        std::function<void()> run;
        std::shared_ptr<CancelToken> cancel;
        double timeoutSeconds = 0.0;
    };

    explicit WorkerPool(std::size_t workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Spawn the worker threads (idempotent). */
    void start();

    /** Stop all workers after their current task; queued tasks are
     * discarded (call drain() first to run everything). */
    void stop();

    /** Enqueue on the currently shortest queue. */
    void submit(Task task);

    /** Enqueue on worker @p worker's queue specifically. */
    void submitTo(std::size_t worker, Task task);

    /** Block until every queue is empty and every worker is idle. */
    void drain();

    std::size_t workers() const { return workers_.size(); }

    // Counter snapshot (approximate under concurrency; exact once
    // drained) — surfaced in the daemon's metrics JSONL and stats.
    std::size_t queuedTasks() const;
    std::size_t busyWorkers() const;
    std::uint64_t steals() const;
    std::uint64_t restarts() const;
    std::uint64_t completed() const;
    std::uint64_t watchdogCancellations() const;
    std::uint64_t executedBy(std::size_t worker) const;

  private:
    struct WorkerState
    {
        std::deque<Task> queue;
        std::uint64_t executed = 0;
        bool busy = false;
        // Watchdog view of the in-flight task (guarded by mutex_).
        std::shared_ptr<CancelToken> runningCancel;
        double runningDeadline = 0.0; ///< monotonic seconds; 0 = none
        bool cancelledByWatchdog = false;
    };

    void workerLoop(std::size_t self);
    void watchdogLoop();

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< workers wait for tasks
    std::condition_variable idleCv_;  ///< drain() waits for quiescence
    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::vector<std::thread> threads_;
    std::thread watchdog_;
    bool started_ = false;
    bool stopping_ = false;
    std::uint64_t steals_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t watchdogCancellations_ = 0;
};

} // namespace manna::harness

#endif // MANNA_HARNESS_WORKER_POOL_HH
