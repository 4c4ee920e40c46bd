/// \file commit_pipeline.h
/// \brief Leader–follower group-commit pipeline.
///
/// Behind Transaction::Commit every committing transaction pays a fixed
/// per-transaction toll: a commit-mutex acquisition in the version store
/// (timestamp allocation + version stamping) — and, on a sharded engine,
/// the coordinator's commit mutex and in-flight registry. At high CLIENTN
/// those serialized sections dominate the commit path. The pipeline
/// amortizes them the way write-ahead-logging engines amortize the log
/// fsync:
///
///   * A committer enqueues its request. If no leader is active it
///     becomes the leader immediately (an uncontended commit forms a
///     batch of one — group commit adds no idle latency).
///   * While the leader processes its batch, later committers enqueue
///     and sleep. When the leader finishes it wakes everyone; one of the
///     still-pending committers becomes the next leader and takes the
///     whole accumulated queue (up to max_batch) as one batch.
///   * The engine-supplied batch function performs the per-batch work
///     once for the whole group: one commit-mutex acquisition stamps
///     every member's versions with consecutive timestamps, one observer
///     pass fires the end callbacks (see Database::CommitBatch and
///     CrossShardCoordinator::CommitBatch).
///
/// The pipeline itself knows nothing about transactions: requests carry
/// an opaque handle and receive a Status. Correctness (per-txn stamping
/// order, stamp-before-release) is the batch function's contract.
///
/// max_batch = 1 degrades to per-transaction commits through the same
/// code path.

#ifndef OCB_CONCURRENCY_COMMIT_PIPELINE_H_
#define OCB_CONCURRENCY_COMMIT_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "util/status.h"
#include "util/sync.h"

namespace ocb {

/// Aggregate pipeline counters (monotonic; read via stats()).
struct GroupCommitStats {
  uint64_t commits = 0;         ///< Requests processed.
  uint64_t batches = 0;         ///< Leader rounds (>= 1 request each).
  uint64_t grouped_commits = 0; ///< Requests that shared a batch (> 1).
  uint64_t max_batch_formed = 0;///< Largest batch observed.
  uint64_t batch_nanos = 0;     ///< Wall time inside the batch function —
                                ///< the serialized commit-path work the
                                ///< grouping amortizes.

  /// Mean commits per leader round.
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(commits) /
                              static_cast<double>(batches);
  }
};

/// \brief Serializes commits into batches processed by one leader at a
/// time.
class CommitPipeline {
 public:
  /// One enqueued commit. The batch function reads \c handle and must
  /// set \c status before returning.
  struct Request {
    void* handle = nullptr;
    Status status;
  };

  /// Processes one batch. Called by exactly one thread at a time (the
  /// current leader), outside the pipeline mutex.
  using BatchFn = std::function<void(const std::vector<Request*>&)>;

  /// \p max_batch is the largest batch one leader may take. 1 =
  /// per-transaction commits (group commit effectively off); larger
  /// values let a leader absorb every committer that arrived while its
  /// predecessor worked. A leader never waits for followers, so an
  /// uncontended commit pays no added latency.
  explicit CommitPipeline(BatchFn fn, uint32_t max_batch = 32)
      : fn_(std::move(fn)), max_batch_(max_batch < 1 ? 1 : max_batch) {}

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Enqueues \p handle and blocks until a leader (possibly this thread)
  /// has processed it; returns the status the batch function assigned.
  ///
  /// TSA-exempt: the cv wait and the unlock-around-fn_ window unlock and
  /// relock mu_ mid-function, a flow the intraprocedural analysis cannot
  /// follow. Lockdep still sees every transition through Mutex::lock/
  /// unlock.
  ///
  /// Enqueueing notifies nobody: a follower waits only while a leader is
  /// active, and that leader's end-of-batch notify_all wakes it.
  Status Submit(void* handle) OCB_NO_THREAD_SAFETY_ANALYSIS {
    Request req;
    req.handle = handle;
    std::unique_lock<Mutex> lock(mu_);
    queue_.push_back(&req);
    // A processed request has its handle nulled by the leader. A thread
    // may have to lead more than one round before its own request is
    // taken: with a small max_batch the queue front can be a full batch
    // of *earlier* arrivals.
    while (req.handle != nullptr) {
      if (leader_active_) {
        cv_.wait(lock);
        continue;
      }
      leader_active_ = true;
      std::vector<Request*> batch;
      while (!queue_.empty() && batch.size() < max_batch_) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
      lock.unlock();

      const auto start = std::chrono::steady_clock::now();
      fn_(batch);
      const uint64_t nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());

      lock.lock();
      stats_.commits += batch.size();
      ++stats_.batches;
      if (batch.size() > 1) stats_.grouped_commits += batch.size();
      if (batch.size() > stats_.max_batch_formed) {
        stats_.max_batch_formed = batch.size();
      }
      stats_.batch_nanos += nanos;
      for (Request* r : batch) r->handle = nullptr;  // Mark processed.
      leader_active_ = false;
      cv_.notify_all();
    }
    return req.status;
  }

  GroupCommitStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  BatchFn fn_;
  const uint32_t max_batch_;
  mutable Mutex mu_{lockdep::kCommitPipelineClass};
  std::condition_variable_any cv_;
  std::deque<Request*> queue_ OCB_GUARDED_BY(mu_);
  bool leader_active_ OCB_GUARDED_BY(mu_) = false;
  GroupCommitStats stats_ OCB_GUARDED_BY(mu_);
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_COMMIT_PIPELINE_H_
