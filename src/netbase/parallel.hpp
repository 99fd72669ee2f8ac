#pragma once

/// \file parallel.hpp
/// A small fixed thread pool with deterministic fork/join loops — the
/// execution layer behind the parallel SDX compilation pipeline.
///
/// Design constraints (see docs/ARCHITECTURE.md "Parallel compilation"):
///
///   * no work stealing, no task graph: one blocking `parallel_for` at a
///     time splits an index range into chunks that workers (and the calling
///     thread) claim from a shared counter;
///   * determinism is the caller's contract: loop bodies write only to
///     slots owned by their index, so the merged result is independent of
///     which thread ran which chunk and of the thread count;
///   * 1-thread pools and tiny ranges never touch the pool machinery —
///     the loop body runs inline on the caller, so a serial configuration
///     is exactly the pre-parallel code path;
///   * loop bodies may update telemetry instruments (src/telemetry/ —
///     relaxed-atomic counters/gauges/histograms) freely: no ordering is
///     promised between chunks, which is exactly what those instruments
///     need. tests/test_telemetry.cpp holds this contract under TSan.
///
/// Besides the fork/join loops the pool accepts one-off background tasks
/// (`submit`) — what the Figure 10 bench's async-recompile series runs its
/// off-thread compile on. Tasks and loops share the workers: a worker
/// busy on a task simply doesn't claim loop chunks (the caller always
/// participates, so loops still complete).
///
/// The pool is cheap to construct (workers are spawned once, parked on a
/// condition variable between loops) but it is not reentrant: calling
/// `parallel_for` from inside a loop body is undefined.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sdx::net {

class ThreadPool {
 public:
  /// \p threads = 0 picks one thread per hardware thread; 1 is fully
  /// serial (no workers are spawned).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width, including the calling thread.
  unsigned size() const { return size_; }

  /// Runs \p body(begin, end) over disjoint sub-ranges covering [0, n).
  /// Blocks until every index has been processed. Chunks are at least
  /// \p grain indices so tiny per-index work amortizes the claim counter;
  /// with one thread (or when one chunk suffices) the body runs inline.
  /// The first exception thrown by any chunk is rethrown on the caller
  /// after the loop completes.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// One-off background task: runs \p task on the first free worker (FIFO)
  /// and returns a future that becomes ready when it finishes (exceptions
  /// propagate through the future). With no workers (size() == 1) the task
  /// runs inline on the submitting thread and the future is already ready.
  /// Tasks still queued when the pool is destroyed are dropped — their
  /// futures surface std::future_error(broken_promise).
  std::future<void> submit(std::function<void()> task);

  /// Index-slotted map: out[i] = fn(i), with fn invoked concurrently.
  template <typename F>
  auto parallel_map(std::size_t n, std::size_t grain, F&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> out(n);
    parallel_for(n, grain, [&out, &fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};      ///< next unclaimed chunk
    std::atomic<std::size_t> finished{0};  ///< chunks fully executed
    std::exception_ptr error;              ///< first failure (under mu_)
    unsigned active = 0;                   ///< workers inside drain (under mu_)
  };

  void worker_loop();
  void drain(Job& job);

  unsigned size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;  ///< workers: a new job is posted
  std::condition_variable done_;  ///< caller: job complete, workers drained
  Job* job_ = nullptr;            ///< current job (under mu_)
  std::deque<std::packaged_task<void()>> tasks_;  ///< submitted (under mu_)
  std::uint64_t epoch_ = 0;       ///< bumped per job so workers wake once
  bool stop_ = false;
};

}  // namespace sdx::net
