// Bounded lock-free single-producer/single-consumer ring buffer — the
// handoff primitive underneath the epoch-batched shard merge
// (sim/epoch_handoff.h) and the pq_serve ingest path (serve/ingest_queue.h).
//
// Exactly one thread may push and exactly one thread may pop; any number of
// threads may observe size()/closed(). The producer publishes an element
// with a release store of the head index and the consumer acquires it, so
// the element's bytes are visible before its slot is claimable — one
// release/acquire pair per element, versus a mutex+condvar round trip on
// the old handoff (bench/micro_handoff.cpp measures the difference).
// Each side keeps the last index it read of the other and reloads it only
// when that copy says full (producer) or empty (consumer), so a push or
// pop into a ring that is neither reads no line the other core writes.
// The producer's head, tail copy and peak share one cache line, the
// consumer's tail and head copy another, and the close flag a third.
//
// The ring never grows: a full ring is the caller's backpressure signal.
// Its storage is raw: the push constructs an element in its slot and the
// pop destroys it, so building a ring sized for a worst case touches none
// of its memory.
// Blocking helpers (push_wait / pop_wait) spin briefly and then sleep in
// short increments so a stalled peer costs microseconds, not a busy core.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>

namespace pq {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is the number of elements the ring holds before push fails;
  /// the backing store is rounded up to a power of two for cheap masking.
  /// The indices run free (a slot is index & mask), so a power-of-two
  /// capacity needs no spare slot.
  explicit SpscQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    std::size_t slots = 1;
    while (slots < capacity_) slots <<= 1;
    mask_ = slots - 1;
    ring_ = std::allocator<T>().allocate(slots);
  }

  ~SpscQueue() {
    const std::size_t head = head_.load(std::memory_order_acquire);
    for (std::size_t i = tail_.load(std::memory_order_acquire); i != head;
         ++i) {
      std::destroy_at(&ring_[i & mask_]);
    }
    std::allocator<T>().deallocate(ring_, mask_ + 1);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer only. Returns false when the ring is full (or closed).
  bool try_push(T&& v) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_seen_ >= capacity_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      if (head - tail_seen_ >= capacity_) return false;
    }
    std::construct_at(&ring_[head & mask_], std::move(v));
    head_.store(head + 1, std::memory_order_release);
    // head + 1 - tail_seen_ bounds the depth from above; only when that
    // bound passes the peak can the depth be a new one, so only then is
    // the tail reloaded to measure it.
    if (head + 1 - tail_seen_ > peak_.load(std::memory_order_relaxed)) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      const std::size_t depth = head + 1 - tail_seen_;
      if (depth > peak_.load(std::memory_order_relaxed)) {
        peak_.store(depth, std::memory_order_relaxed);
      }
    }
    return true;
  }

  /// Producer only. Blocks (spin, then 50 us sleeps) until the element is
  /// accepted or the queue closes; returns false only on close.
  bool push_wait(T&& v) {
    for (unsigned spin = 0; !try_push(std::move(v)); ++spin) {
      if (closed_.load(std::memory_order_relaxed)) return false;
      if (spin < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  }

  /// Consumer only. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_seen_) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (tail == head_seen_) return false;
    }
    out = std::move(ring_[tail & mask_]);
    std::destroy_at(&ring_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Waits up to `wait` for an element; returns false on
  /// timeout or when the queue is closed and drained.
  bool pop_wait(T& out, std::chrono::microseconds wait) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    for (unsigned spin = 0; !try_pop(out); ++spin) {
      if (closed_.load(std::memory_order_acquire) && empty()) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      if (spin < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  }

  /// No new pushes are accepted; the consumer drains what remains. Any
  /// thread may call; idempotent.
  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  bool drained() const { return closed() && empty(); }

  /// Observer-safe: head/tail race at worst one element stale.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }
  std::size_t peak_depth() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t mask_ = 0;
  T* ring_ = nullptr;  ///< mask_ + 1 slots; [tail, head) hold elements
  // Producer side.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_seen_ = 0;
  std::atomic<std::size_t> peak_{0};
  // Consumer side.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_seen_ = 0;
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace pq
