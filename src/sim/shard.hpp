// Worker-thread pool for the sharded fleet engine.
//
// One thread per shard, each draining its own FIFO task queue. Tasks for a
// shard therefore execute in exactly the order they were submitted — the
// property the run-ahead engine leans on: a device's next session segment is
// enqueued before any later work that reads its result, so per-device state
// is only ever touched by its owning shard's thread, in submission order.
// Cross-shard ordering is the coordinator's job (it replays results through
// its own heap); the pool promises nothing across shards and needs no
// stealing, futures, or shared queue — which keeps the TSan story simple:
// every task result is published under the completion mutex its consumer
// blocks on.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace upkit::sim {

class ShardPool {
public:
    /// Spawns `shards` worker threads. 0 is pinned up to 1: callers that
    /// want no workers at all shouldn't construct a pool.
    explicit ShardPool(std::size_t shards);
    ~ShardPool();

    ShardPool(const ShardPool&) = delete;
    ShardPool& operator=(const ShardPool&) = delete;

    std::size_t shards() const { return workers_.size(); }

    /// Enqueues `task` on shard `shard`'s queue. Tasks on one shard run
    /// sequentially in submission order, on that shard's thread.
    void submit(std::size_t shard, std::function<void()> task);

    /// Blocks until every queue is empty and every worker is idle. Used at
    /// barriers (end of run) — not needed for per-task consumption, which
    /// synchronizes on the task's own completion flag.
    void drain();

private:
    struct Worker;  // defined next to its mutators, for the lock-discipline lint

    void run(Worker& w);

    std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace upkit::sim
