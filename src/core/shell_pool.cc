#include "core/shell_pool.h"

#include "core/partition_producer.h"

namespace presto {

namespace {

/** Pop the last idle shell of @p idle, or nullptr; lock held. */
template <typename T>
std::unique_ptr<T>
popLocked(std::vector<std::unique_ptr<T>>& idle)
{
    if (idle.empty())
        return nullptr;
    std::unique_ptr<T> shell = std::move(idle.back());
    idle.pop_back();
    return shell;
}

}  // namespace

ShellPool::ShellPool() = default;

ShellPool::~ShellPool() = default;

std::unique_ptr<WorkerShell>
ShellPool::takeWorker()
{
    {
        std::scoped_lock lock(mu_);
        if (auto shell = popLocked(workers_))
            return shell;
    }
    return std::make_unique<WorkerShell>();
}

void
ShellPool::giveWorker(std::unique_ptr<WorkerShell> shell)
{
    if (shell == nullptr)
        return;
    std::scoped_lock lock(mu_);
    workers_.push_back(std::move(shell));
}

std::unique_ptr<MiniBatch>
ShellPool::takeBatch()
{
    {
        std::scoped_lock lock(mu_);
        if (auto mb = popLocked(batches_))
            return mb;
    }
    return std::make_unique<MiniBatch>();
}

void
ShellPool::giveBatch(std::unique_ptr<MiniBatch> mb)
{
    if (mb == nullptr)
        return;
    std::scoped_lock lock(mu_);
    if (batches_.size() < batch_cap_)
        batches_.push_back(std::move(mb));
    // Past the cap, mb is freed on return, after the lock is released.
}

void
ShellPool::setBatchCap(size_t cap)
{
    std::vector<std::unique_ptr<MiniBatch>> excess;
    {
        std::scoped_lock lock(mu_);
        batch_cap_ = cap;
        while (batches_.size() > cap)
            excess.push_back(popLocked(batches_));
    }
    // excess is freed here, outside the lock.
}

size_t
ShellPool::idleWorkers() const
{
    std::scoped_lock lock(mu_);
    return workers_.size();
}

size_t
ShellPool::idleBatches() const
{
    std::scoped_lock lock(mu_);
    return batches_.size();
}

}  // namespace presto
