/**
 * @file
 * Persistent work-stealing worker pool: the one job pool of the
 * harness. SweepRunner runs in-process sweeps on it (map() submits
 * every point, then drains) and the simulation daemon runs its
 * dispatched jobs on it.
 *
 * The threads are long-lived and pull work continuously, with no
 * round barriers: the moment a worker finishes (or is restarted) it
 * takes the next task. Each worker owns a deque; submit() feeds the
 * shortest queue, submitTo() pins a task to a specific worker (the
 * deterministic-steal test hook), and an idle worker steals from the
 * back of the largest victim queue, emitting a `job.steal` instant so
 * merged harness traces show the migration.
 *
 * Tasks must not throw: callers catch at their own job boundary. Per-
 * job timeouts are the caller's too (the sweep watchdog in sweep.cc).
 * The `pool.worker.crash` fault site fires at task pickup: the task is
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

namespace manna::harness
{

class WorkerPool
{
  public:
    /** One unit of pool work. */
    using Task = std::function<void()>;

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
    std::uint64_t executedBy(std::size_t worker) const;

  private:
    struct WorkerState
    {
        std::deque<Task> queue;
        std::uint64_t executed = 0;
        bool busy = false;
    };

    void workerLoop(std::size_t self);

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< workers wait for tasks
    std::condition_variable idleCv_;  ///< drain() waits for quiescence
    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::vector<std::thread> threads_;
    bool started_ = false;
    bool stopping_ = false;
    std::uint64_t steals_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace manna::harness

#endif // MANNA_HARNESS_WORKER_POOL_HH
