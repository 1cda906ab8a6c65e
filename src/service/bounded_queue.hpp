/// \file
/// Lock-free bounded multi-producer/single-consumer handoff queue for the
/// admission gateway. Producers never block and never take a lock: a batch
/// of items is claimed with one CAS on the (monotone, 64-bit) enqueue
/// cursor, written into Vyukov-style per-slot sequence cells, and published
/// per cell with a release store. The single consumer (a shard worker)
/// drains the contiguous published prefix in batches and advances its
/// cursor once per batch — the whole hot path is wait-free for the
/// consumer and lock-free for producers.
///
/// Memory-ordering argument (see docs/perf.md, "Shard scaling"):
///   * producer -> consumer: a producer writes `cell.value` and then
///     stores `cell.seq = pos + 1` with release; the consumer reads the
///     seq with acquire before touching the value. seqs are monotone per
///     cell (pos advances by capacity per lap), so a stale lap can never
///     alias a fresh publication.
///   * consumer -> producer: the consumer advances `tail_` with a release
///     store after it has moved the values out; a producer loads `tail_`
///     with acquire before claiming and only claims slots strictly below
///     `tail + capacity`, so its non-atomic write to `cell.value` is
///     ordered after the consumer's read of the previous lap.
///   * close vs claim: the closed flag lives in bit 63 of the enqueue
///     cursor itself, so close() (a fetch_or) and producer claims (CAS)
///     are totally ordered in one atomic's modification order. Every
///     claim that won the race against close() is below the cursor value
///     close() observed, and the consumer refuses to report
///     closed-and-drained until it has consumed *up to that cursor* —
///     an item whose try_push returned true is never lost (the
///     try_pop_batch contract test pins this).
///
/// The idle consumer parks on a futex (Linux) or a mutex+condvar
/// eventcount (elsewhere); producers only touch the parking path when the
/// consumer has registered itself as sleeping (a Dekker-style seq_cst
/// fence pair closes the lost-wakeup window), so the uncontended push is
/// purely atomics.
///
/// Capacity must be a power of two (slot = pos & mask). A non-power-of-two
/// capacity is rejected loudly — silently rounding a bound the operator
/// configured is how shed-rate math goes wrong.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define SLACKSCHED_QUEUE_HAS_FUTEX 1
#else
#define SLACKSCHED_QUEUE_HAS_FUTEX 0
#endif

#include "common/expects.hpp"

namespace slacksched {

/// Result of a consumer pop (BoundedMpscQueue::try_pop_batch): how many
/// items were delivered, and whether the queue is closed-and-drained
/// (count == 0 then distinguishes "shut down" from "nothing available").
struct PopOutcome {
  std::size_t count = 0;
  bool closed = false;
};

namespace detail {

/// Eventcount the single consumer parks on while the ring is empty.
/// Producers call notify() after publishing; the seq_cst fences on both
/// sides guarantee that either the producer observes the registered waiter
/// (and wakes it) or the consumer's recheck observes the published item —
/// the classic Dekker store-buffer argument, so a wakeup is never lost.
/// On Linux the sleep itself is a futex wait on the epoch word; elsewhere
/// a mutex+condvar pair provides the same semantics (the mutex is only
/// touched on the park/wake slow path, never on an uncontended push).
class ConsumerParker {
 public:
  /// Producer side, after publishing work (or closing): wake the consumer
  /// iff it is parked or about to park. The common no-waiter case is one
  /// fence and one relaxed load.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
#if SLACKSCHED_QUEUE_HAS_FUTEX
    epoch_.fetch_add(1, std::memory_order_release);
    syscall(SYS_futex, epoch_word(), FUTEX_WAKE_PRIVATE, INT32_MAX, nullptr,
            nullptr, 0);
#else
    {
      // Taking the mutex orders the epoch bump against the consumer's
      // predicate check inside wait_until: no wakeup can fall between
      // the check and the sleep.
      std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
#endif
  }

  /// Consumer side: sleep until notify() lands or `deadline` passes.
  /// `recheck` must return true when there is work; it is re-evaluated
  /// after waiter registration so a publication that raced the
  /// registration is never slept through.
  template <typename Recheck>
  void park(Recheck&& recheck,
            std::chrono::steady_clock::time_point deadline) {
    const std::uint32_t observed = epoch_.load(std::memory_order_acquire);
    waiters_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (recheck()) {
      waiters_.store(0, std::memory_order_relaxed);
      return;
    }
#if SLACKSCHED_QUEUE_HAS_FUTEX
    while (epoch_.load(std::memory_order_acquire) == observed) {
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero()) break;
      const auto secs = std::chrono::duration_cast<std::chrono::seconds>(left);
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(secs.count());
      ts.tv_nsec = static_cast<long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(left - secs)
              .count());
      // EAGAIN (epoch already moved), EINTR and ETIMEDOUT all resolve in
      // the loop condition / deadline check above.
      syscall(SYS_futex, epoch_word(), FUTEX_WAIT_PRIVATE, observed, &ts,
              nullptr, 0);
    }
#else
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, deadline, [this, observed] {
      return epoch_.load(std::memory_order_acquire) != observed;
    });
#endif
    waiters_.store(0, std::memory_order_relaxed);
  }

  /// Wake calls issued so far (FUTEX_WAKE, or the condvar broadcast off
  /// Linux): notify() calls that found the consumer parked or parking.
  [[nodiscard]] std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
#if SLACKSCHED_QUEUE_HAS_FUTEX
  /// FUTEX_WAIT compares a plain 32-bit word; the lock-free atomic's
  /// storage is exactly that word.
  std::uint32_t* epoch_word() {
    static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
    return reinterpret_cast<std::uint32_t*>(&epoch_);
  }
#endif

  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<std::uint64_t> wakeups_{0};
#if !SLACKSCHED_QUEUE_HAS_FUTEX
  std::mutex mutex_;
  std::condition_variable cv_;
#endif
};

}  // namespace detail

/// Fixed-capacity lock-free ring with batch-claim on both sides: a timed
/// wait plus a non-blocking batch-pop for the single consumer,
/// non-blocking single/batch push for any number of producers. Capacity
/// must be a power of two.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : mask_(capacity - 1), capacity_(capacity) {
    SLACKSCHED_EXPECTS(capacity >= 1);
    SLACKSCHED_EXPECTS((capacity & (capacity - 1)) == 0);
    cells_ = std::make_unique<Cell[]>(capacity);
    // Cell seqs start unpublished for lap 0: slot i publishes as i + 1.
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(0, std::memory_order_relaxed);
    }
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Attempts to enqueue. Returns false — without taking ownership — when
  /// the queue is full or closed; the caller decides how to degrade.
  [[nodiscard]] bool try_push(T item) {
    const std::size_t taken =
        try_push_batch_with(1, nullptr, [&item](std::size_t, T& slot) {
          slot = std::move(item);
        });
    return taken == 1;
  }

  /// Attempts to enqueue a span of items with one claim CAS. Stops at the
  /// first item that does not fit (or immediately when closed) and returns
  /// how many were taken; items are consumed from the front of `first` in
  /// order, so the caller re-submits or sheds the tail. When `closed` is
  /// non-null it reports whether the refusal (if any) was due to the queue
  /// being closed rather than full — the two demand different degradation
  /// (a closed shard is gone; a full one is backpressure).
  [[nodiscard]] std::size_t try_push_batch(T* first, std::size_t count,
                                           bool* closed = nullptr) {
    return try_push_batch_with(count, closed,
                               [first](std::size_t i, T& slot) {
                                 slot = std::move(first[i]);
                               });
  }

  /// Zero-copy batch enqueue: claims up to `count` contiguous slots with
  /// one CAS and invokes `write(i, slot)` to construct the i-th item
  /// directly in its ring cell — no staging buffer on the producer side.
  /// Same refusal semantics as try_push_batch. `write` runs outside any
  /// lock and must not throw.
  template <typename Writer>
  [[nodiscard]] std::size_t try_push_batch_with(std::size_t count,
                                                bool* closed, Writer&& write) {
    if (closed != nullptr) *closed = false;
    if (count == 0) return 0;
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t pos;
    std::size_t taken;
    do {
      if ((head & kClosedBit) != 0) {
        if (closed != nullptr) *closed = true;
        return 0;
      }
      pos = head;
      // The acquire load of tail_ is what licenses the non-atomic writes
      // below: every claimed slot is strictly below tail + capacity, so
      // the consumer has already moved the previous lap's value out.
      const std::uint64_t tail = tail_.load(std::memory_order_acquire);
      const std::size_t free_slots =
          capacity_ - static_cast<std::size_t>(pos - tail);
      taken = count < free_slots ? count : free_slots;
      if (taken == 0) return 0;  // full: backpressure, not blocking
    } while (!head_.compare_exchange_weak(head, pos + taken,
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed));
    for (std::size_t i = 0; i < taken; ++i) {
      Cell& cell = cells_[(pos + i) & mask_];
      write(i, cell.value);
      cell.seq.store(pos + i + 1, std::memory_order_release);
    }
    parker_.notify();
    return taken;
  }

  /// Consumer side, split in two so that a consumer can hold a lock while
  /// it consumes but not while it sleeps. wait_for() blocks at most
  /// `timeout` until try_pop_batch() would make progress (an item is
  /// published at the consumer cursor, or the queue is closed-and-drained)
  /// and consumes nothing; it returns false on timeout. A supervised
  /// worker wakes at least once per `timeout` to publish a heartbeat even
  /// when the queue is idle, so a supervisor can tell a stalled consumer
  /// from an idle one.
  bool wait_for(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      if (consumer_ready()) return true;  // no waiter registration, no fence
      bool ready = false;
      parker_.park([&] { return ready = consumer_ready(); }, deadline);
      if (ready || consumer_ready()) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }

  /// Non-blocking pop: moves up to `max_items` published items to `out`
  /// (constructed, assignable storage) in FIFO order. `count == 0 &&
  /// closed` means closed-and-drained; `count == 0 && !closed` means
  /// nothing is published yet.
  ///
  /// Contract pinned by tests/test_bounded_queue.cpp: after a close()
  /// that raced producers, `closed == true` comes only once the ring is
  /// *fully drained* — including items whose claim won the race against
  /// close() but whose publication had not yet landed when close()
  /// returned. Until then the consumer keeps receiving the backlog (or
  /// wait_for() waits for the in-flight publication), never a premature
  /// shutdown.
  PopOutcome try_pop_batch(T* out, std::size_t max_items) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t head_pos = head & ~kClosedBit;
    const std::size_t n = published_prefix(tail, head_pos, max_items);
    if (n > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::move(cells_[(tail + i) & mask_].value);
      }
      // Release: hands the consumed cells back to producers (their next
      // claim's tail acquire orders the value writes after our reads).
      tail_.store(tail + n, std::memory_order_release);
      return PopOutcome{n, false};
    }
    // Closed-and-drained only once every claim below the close-time cursor
    // has been consumed. head_pos > tail with nothing published means a
    // producer is mid-publication: never report a premature close.
    return PopOutcome{0, (head & kClosedBit) != 0 && head_pos == tail};
  }

  /// Wake calls producers have issued to the parked consumer so far.
  [[nodiscard]] std::uint64_t wakeups() const { return parker_.wakeups(); }

  /// Marks the queue closed: subsequent pushes fail, the consumer drains
  /// the remaining items and then sees try_pop_batch report closed. The
  /// closed bit lives in the enqueue cursor, so closing and claiming are
  /// totally ordered: no claim can slip in "after" close yet before the
  /// consumer's drained check.
  void close() {
    head_.fetch_or(kClosedBit, std::memory_order_acq_rel);
    parker_.notify();
  }

  /// Reopens a closed queue for a supervised restart. Requires the old
  /// consumer to have exited; items still buffered survive and are
  /// delivered to the new consumer.
  void reopen() {
    head_.fetch_and(~kClosedBit, std::memory_order_acq_rel);
  }

  /// Claimed-but-not-yet-consumed items (includes claims whose publication
  /// is still in flight). Approximate under concurrency, exact at rest,
  /// and always within [0, capacity()]: the consume cursor is loaded first
  /// (it never passes the claim cursor, so the difference cannot wrap),
  /// and the bound covers items consumed and re-claimed between the loads.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return std::min(static_cast<std::size_t>((head & ~kClosedBit) - tail),
                    capacity_);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] bool closed() const {
    return (head_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

 private:
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  struct alignas(64) Cell {
    /// Publication word: `pos + 1` once the value for claim position `pos`
    /// is readable. Monotone across laps (pos advances by capacity), so a
    /// previous lap's publication can never be mistaken for this one.
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  /// Number of contiguously published items from `tail`, capped at
  /// `max_items`. Consumer-only; the prefix can only grow concurrently.
  [[nodiscard]] std::size_t published_prefix(std::uint64_t tail,
                                             std::uint64_t head_pos,
                                             std::size_t max_items) const {
    std::size_t n = 0;
    const std::size_t limit =
        std::min<std::size_t>(max_items,
                              static_cast<std::size_t>(head_pos - tail));
    while (n < limit &&
           cells_[(tail + n) & mask_].seq.load(std::memory_order_acquire) ==
               tail + n + 1) {
      ++n;
    }
    return n;
  }

  /// True when try_pop_batch would make progress. Consumer-only.
  [[nodiscard]] bool consumer_ready() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return published_prefix(tail, h & ~kClosedBit, 1) > 0 ||
           ((h & kClosedBit) != 0 && (h & ~kClosedBit) == tail);
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_;
  std::size_t capacity_;
  /// Enqueue cursor (bit 63 = closed). Producers CAS-claim slot ranges.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  /// Dequeue cursor, written only by the consumer (once per batch).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) detail::ConsumerParker parker_;
};

}  // namespace slacksched
