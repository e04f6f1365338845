#include "sim/shard.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace upkit::sim {

struct ShardPool::Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;  // lint: guarded-by(mu)
    bool busy = false;
    bool stop = false;
    std::thread thread;
};

ShardPool::ShardPool(std::size_t shards) {
    if (shards == 0) shards = 1;
    workers_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        Worker& w = *workers_.back();
        w.thread = std::thread([this, &w] { run(w); });
    }
}

ShardPool::~ShardPool() {
    for (auto& w : workers_) {
        {
            std::lock_guard<std::mutex> lock(w->mu);
            w->stop = true;
        }
        w->cv.notify_all();
    }
    for (auto& w : workers_) {
        if (w->thread.joinable()) w->thread.join();
    }
}

void ShardPool::submit(std::size_t shard, std::function<void()> task) {
    Worker& w = *workers_[shard % workers_.size()];
    {
        std::lock_guard<std::mutex> lock(w.mu);
        w.queue.push_back(std::move(task));
    }
    w.cv.notify_one();
}

void ShardPool::drain() {
    for (auto& w : workers_) {
        std::unique_lock<std::mutex> lock(w->mu);
        w->cv.wait(lock, [&] { return w->queue.empty() && !w->busy; });
    }
}

void ShardPool::run(Worker& w) {
    std::unique_lock<std::mutex> lock(w.mu);
    for (;;) {
        w.cv.wait(lock, [&] { return w.stop || !w.queue.empty(); });
        if (w.queue.empty()) {
            if (w.stop) return;
            continue;
        }
        std::function<void()> task = std::move(w.queue.front());
        w.queue.pop_front();
        w.busy = true;
        lock.unlock();
        task();
        lock.lock();
        w.busy = false;
        if (w.queue.empty()) w.cv.notify_all();  // wake drain()
    }
}

}  // namespace upkit::sim
