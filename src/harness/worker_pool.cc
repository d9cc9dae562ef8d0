#include "worker_pool.hh"

#include <exception>

#include "common/event_log.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::harness
{

WorkerPool::WorkerPool(std::size_t workers)
{
    if (workers == 0)
        workers = 1;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<WorkerState>());
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    started_ = true;
    stopping_ = false;
    threads_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_)
            return;
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
}

void
WorkerPool::submit(Task task)
{
    std::size_t target = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t best = workers_[0]->queue.size();
        for (std::size_t i = 1; i < workers_.size(); ++i) {
            if (workers_[i]->queue.size() < best) {
                best = workers_[i]->queue.size();
                target = i;
            }
        }
        workers_[target]->queue.push_back(std::move(task));
    }
    if (events::enabled())
        events::instant("job.enqueue",
                        strformat("worker=%zu", target));
    workCv_.notify_all();
}

void
WorkerPool::submitTo(std::size_t worker, Task task)
{
    MANNA_ASSERT(worker < workers_.size(), "bad pool worker index");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        workers_[worker]->queue.push_back(std::move(task));
    }
    if (events::enabled())
        events::instant("job.enqueue",
                        strformat("worker=%zu pinned=1", worker));
    workCv_.notify_all();
}

void
WorkerPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] {
        for (const auto &w : workers_)
            if (w->busy || !w->queue.empty())
                return false;
        return true;
    });
}

std::size_t
WorkerPool::queuedTasks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &w : workers_)
        n += w->queue.size();
    return n;
}

std::size_t
WorkerPool::busyWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &w : workers_)
        if (w->busy)
            ++n;
    return n;
}

std::uint64_t
WorkerPool::steals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return steals_;
}

std::uint64_t
WorkerPool::restarts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return restarts_;
}

std::uint64_t
WorkerPool::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::uint64_t
WorkerPool::executedBy(std::size_t worker) const
{
    MANNA_ASSERT(worker < workers_.size(), "bad pool worker index");
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_[worker]->executed;
}

void
WorkerPool::workerLoop(std::size_t self)
{
    WorkerState &me = *workers_[self];
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        Task task;
        bool stolen = false;
        std::size_t victim = self;
        if (!me.queue.empty()) {
            task = std::move(me.queue.front());
            me.queue.pop_front();
        } else {
            // Steal from the back of the largest non-empty queue —
            // the task its owner would reach last.
            std::size_t best = 0;
            for (std::size_t i = 0; i < workers_.size(); ++i) {
                if (i == self)
                    continue;
                if (workers_[i]->queue.size() > best) {
                    best = workers_[i]->queue.size();
                    victim = i;
                }
            }
            if (best > 0) {
                task = std::move(workers_[victim]->queue.back());
                workers_[victim]->queue.pop_back();
                ++steals_;
                stolen = true;
            } else {
                if (stopping_)
                    return;
                workCv_.wait(lock);
                continue;
            }
        }
        if (fault::anyArmed() &&
            fault::shouldFire(fault::Site::PoolWorkerCrash)) {
            // The worker "dies" holding the task: put it back where
            // the restarted worker will pick it up first. Jobs are
            // pure, so the re-execution is byte-identical.
            me.queue.push_front(std::move(task));
            ++restarts_;
            lock.unlock();
            warn("pool worker %zu crashed (injected); restarting",
                 self);
            workCv_.notify_all();
            lock.lock();
            continue;
        }
        me.busy = true;
        lock.unlock();
        if (stolen && events::enabled())
            events::instant("job.steal",
                            strformat("thief=%zu victim=%zu", self,
                                      victim));
        // Tasks catch their own failures at the job boundary; a throw
        // reaching here would leave the worker busy and deadlock
        // drain(), so fail loudly instead.
        try {
            task();
        } catch (const std::exception &e) {
            panic("pool task threw (harness bug): %s", e.what());
        } catch (...) {
            panic("pool task threw (harness bug)");
        }
        lock.lock();
        me.busy = false;
        me.executed += 1;
        completed_ += 1;
        idleCv_.notify_all();
        if (stopping_ && me.queue.empty())
            return;
    }
}

} // namespace manna::harness
