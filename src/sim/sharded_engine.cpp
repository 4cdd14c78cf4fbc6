#include "sim/sharded_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/hash.h"
#include "common/thread_pin.h"

namespace pq::sim {

namespace {

/// Runs fn(0..tasks) across up to `workers` threads, caller participating.
/// Task claim order is nondeterministic; callers must make per-task work
/// independent (disjoint output ranges).
template <typename Fn>
void parallel_for(std::size_t tasks, unsigned workers, Fn&& fn) {
  if (workers <= 1 || tasks <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < tasks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const std::size_t spawned =
      std::min<std::size_t>(workers, tasks) - 1;  // caller is a worker too
  std::vector<std::thread> pool;
  pool.reserve(spawned);
  for (std::size_t t = 0; t < spawned; ++t) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
}

/// Computes forwarding decisions for packets[begin, end) into dest[] and
/// per-shard counts. The default dst-hash decision runs the mix64 finalizer
/// column-wise over 256-key chunks (bit-identical to per-packet calls); a
/// custom function goes through std::function per packet. Returns false on
/// an out-of-range port (the caller throws — this may run off-thread).
bool fill_destinations(const std::vector<Packet>& packets, std::size_t begin,
                       std::size_t end, std::size_t n, bool default_fwd,
                       const std::function<std::uint32_t(const Packet&)>& fwd,
                       std::uint32_t* dest, std::size_t* counts) {
  if (default_fwd) {
    constexpr std::size_t kChunk = 256;
    std::array<std::uint64_t, kChunk> keys;
    for (std::size_t base = begin; base < end; base += kChunk) {
      const std::size_t m = std::min(kChunk, end - base);
      for (std::size_t i = 0; i < m; ++i) {
        keys[i] = packets[base + i].flow.dst_ip;
      }
      mix64_batch(keys.data(), keys.data(), m);
      for (std::size_t i = 0; i < m; ++i) {
        const auto s = static_cast<std::uint32_t>(keys[i] % n);
        dest[base + i] = s;
        ++counts[s];
      }
    }
    return true;
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t out = fwd(packets[i]);
    if (out >= n) return false;
    dest[i] = out;
    ++counts[out];
  }
  return true;
}

bool arrival_sorted(const std::vector<Packet>& packets) {
  return std::is_sorted(packets.begin(), packets.end(),
                        [](const Packet& a, const Packet& b) {
                          return a.arrival_ns < b.arrival_ns;
                        });
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<PortConfig> port_configs) {
  if (port_configs.empty()) {
    throw std::invalid_argument("ShardedEngine needs at least one port");
  }
  ports_.reserve(port_configs.size());
  for (auto& cfg : port_configs) {
    ports_.push_back(std::make_unique<EgressPort>(cfg));
  }
  drain_ns_.assign(ports_.size(), 0);
  const auto n = ports_.size();
  fwd_ = [n](const Packet& p) {
    return static_cast<std::uint32_t>(mix64(p.flow.dst_ip) % n);
  };
}

void ShardedEngine::set_forwarding(
    std::function<std::uint32_t(const Packet&)> fwd) {
  fwd_ = std::move(fwd);
  default_fwd_ = false;
}

void ShardedEngine::add_hook(std::uint32_t port_index, EgressHook* hook) {
  ports_.at(port_index)->add_hook(hook);
}

std::vector<std::vector<Packet>> ShardedEngine::partition(
    const std::vector<Packet>& packets,
    const std::function<std::uint32_t(const Packet&)>& fwd,
    std::size_t num_ports) {
  assert(arrival_sorted(packets));
  // Two passes: decide+count, then reserve+scatter. Pre-counting makes
  // every shard exactly one allocation.
  std::vector<std::uint32_t> dest(packets.size());
  std::vector<std::size_t> counts(num_ports, 0);
  if (!fill_destinations(packets, 0, packets.size(), num_ports,
                         /*default_fwd=*/false, fwd, dest.data(),
                         counts.data())) {
    throw std::out_of_range("forwarding returned an invalid port");
  }
  std::vector<std::vector<Packet>> shards(num_ports);
  for (std::size_t s = 0; s < num_ports; ++s) shards[s].reserve(counts[s]);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    shards[dest[i]].push_back(packets[i]);
  }
  return shards;
}

std::vector<std::vector<Packet>> ShardedEngine::partition_parallel(
    const std::vector<Packet>& packets, unsigned workers) const {
  const std::size_t n = ports_.size();
  std::vector<std::vector<Packet>> shards(n);
  if (packets.empty()) return shards;
  const std::size_t total = packets.size();

  // One chunk per worker, but never chunks so small that the per-chunk
  // bookkeeping (counts table, offset copy) shows up.
  constexpr std::size_t kMinChunkPackets = 1 << 15;
  const std::size_t num_chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(workers,
                               (total + kMinChunkPackets - 1) /
                                   kMinChunkPackets));
  std::vector<std::size_t> bounds(num_chunks + 1);
  for (std::size_t c = 0; c <= num_chunks; ++c) {
    bounds[c] = total * c / num_chunks;
  }

  // Pass 1 (parallel over chunks): forwarding decision + per-(chunk, shard)
  // counts. Disjoint dest[] ranges, private count tables — no sharing.
  std::vector<std::uint32_t> dest(total);
  std::vector<std::vector<std::size_t>> counts(
      num_chunks, std::vector<std::size_t>(n, 0));
  std::atomic<bool> ok{true};
  parallel_for(num_chunks, workers, [&](std::size_t c) {
    if (!fill_destinations(packets, bounds[c], bounds[c + 1], n, default_fwd_,
                           fwd_, dest.data(), counts[c].data())) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  if (!ok.load(std::memory_order_relaxed)) {
    throw std::out_of_range("forwarding returned an invalid port");
  }

  // Exclusive prefix over chunks gives each (chunk, shard) pair its write
  // window; earlier chunks write earlier slots, so per-shard arrival order
  // is exactly the sequential partition's.
  std::vector<std::vector<std::size_t>> offsets(
      num_chunks, std::vector<std::size_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t off = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      offsets[c][s] = off;
      off += counts[c][s];
    }
    shards[s].resize(off);
  }

  // Pass 2 (parallel over chunks): scatter into the reserved windows.
  parallel_for(num_chunks, workers, [&](std::size_t c) {
    std::vector<std::size_t> cur = offsets[c];
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      shards[dest[i]][cur[dest[i]]++] = packets[i];
    }
  });
  return shards;
}

void ShardedEngine::run(std::vector<Packet> packets, unsigned threads,
                        std::uint32_t batch) {
  RunOptions opts;
  opts.threads = threads;
  opts.batch = batch;
  run(std::move(packets), opts);
}

void ShardedEngine::start_run(const RunOptions& opts) {
  // A zero step would never advance past the first epoch boundary.
  if (opts.epoch_ns == 0) {
    throw std::invalid_argument("ShardedEngine: epoch_ns must be positive");
  }
  if (ran_) throw std::logic_error("ShardedEngine::run is single-shot");
  ran_ = true;
}

void ShardedEngine::run(std::vector<Packet> packets, const RunOptions& opts) {
  start_run(opts);
  // Generator output is already arrival-ordered; sort only when needed.
  if (!arrival_sorted(packets)) {
    std::stable_sort(packets.begin(), packets.end(),
                     [](const Packet& a, const Packet& b) {
                       return a.arrival_ns < b.arrival_ns;
                     });
  }
  const unsigned workers = std::max(
      1u, std::min<unsigned>(opts.threads,
                             static_cast<unsigned>(ports_.size())));
  auto shards = partition_parallel(packets, workers);
  packets.clear();
  packets.shrink_to_fit();
  run_shards(std::move(shards), opts);
}

void ShardedEngine::run_partitioned(std::vector<std::vector<Packet>> shards,
                                    const RunOptions& opts) {
  if (shards.size() > ports_.size()) {
    throw std::invalid_argument("run_partitioned: more shards than ports");
  }
  start_run(opts);
  shards.resize(ports_.size());
  run_shards(std::move(shards), opts);
}

void ShardedEngine::run_shards(std::vector<std::vector<Packet>>&& shards,
                               const RunOptions& opts) {
  const unsigned workers = std::max(
      1u, std::min<unsigned>(opts.threads,
                             static_cast<unsigned>(ports_.size())));
  worker_cpus_.assign(workers, -1);
  // Every packet departs at most once, so the shards bound the merged view:
  // one allocation up front instead of regrowing it while workers drain.
  std::size_t bound = 0;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (ports_[p]->config().collect_records) bound += shards[p].size();
  }
  merged_.reserve(bound);
  // With one worker the caller drains every shard itself and the collector
  // merges inline at each seal.
  EpochCollector collector(ports_.size(), /*concurrent=*/workers > 1, merged_,
                           epoch_hooks_);
  if (workers == 1) {
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      drain_shard_epochs(p, shards[p], opts, collector);
    }
    collector.finish();
    return;
  }

  // Work-stealing over shard indices: shards are mutually independent, so
  // the claim order (the only scheduling nondeterminism) cannot affect any
  // shard's result. While workers drain, the caller thread consumes sealed
  // epoch chunks and performs the deterministic merge; exceptions are
  // rethrown on the caller thread after the join.
  std::atomic<std::size_t> next{0};
  std::atomic<unsigned> active{workers};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&](unsigned t) {
    if (opts.pin_threads) worker_cpus_[t] = pin_current_thread(t);
    for (std::size_t p = next.fetch_add(1, std::memory_order_relaxed);
         p < ports_.size();
         p = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        drain_shard_epochs(p, shards[p], opts, collector);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    }
    active.fetch_sub(1, std::memory_order_release);
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  // Consume until every producer exited; this also keeps the bounded
  // queues moving, so a worker can never block forever in publish().
  while (active.load(std::memory_order_acquire) > 0) {
    if (!collector.poll()) std::this_thread::yield();
  }
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
  collector.finish();
}

void ShardedEngine::drain_shard_epochs(std::size_t p,
                                       const std::vector<Packet>& shard,
                                       const RunOptions& opts,
                                       EpochCollector& collector) {
  // Shard-local wall-clock accounting: only the worker that claimed shard
  // `p` touches drain_ns_[p], so no synchronisation is needed (and the
  // stopwatch is a no-op in PQ_METRICS=OFF builds).
  const obs::StopwatchNs watch;
  EgressPort& port = *ports_[p];
  port.set_hook_batch(opts.batch);
  const Duration step = opts.epoch_ns;
  std::uint64_t epoch = 0;
  Timestamp boundary = static_cast<Timestamp>(step);
  std::size_t cursor = port.records().size();

  // Seal everything that departed since the last seal. Epoch e holds the
  // departures with timestamp in (e*step, (e+1)*step] (epoch 0 also covers
  // t = 0) — advance_to(boundary) has executed all of them and nothing
  // later, on every shard, which is what makes the consumer's per-epoch
  // merge reproduce the global dequeue-order sort.
  auto seal = [&](bool final_seal, Timestamp at) {
    RecordChunk chunk;
    chunk.epoch = epoch;
    chunk.final_chunk = final_seal;
    const auto& recs = port.records();
    chunk.records.assign(recs.begin() + static_cast<std::ptrdiff_t>(cursor),
                         recs.end());
    cursor = recs.size();
    if (epoch_hooks_ != nullptr && epoch_hooks_->seal) {
      chunk.sidecar = epoch_hooks_->seal(
          static_cast<std::uint32_t>(p), EpochSeal{epoch, at, final_seal});
    }
    collector.publish(static_cast<std::uint32_t>(p), std::move(chunk));
    ++epoch;
  };

  for (const auto& pkt : shard) {
    // Strictly greater: a packet arriving exactly at the boundary may still
    // depart at the boundary (dequeue precedes enqueue on ties), and that
    // departure belongs to the epoch being sealed — offer() emits it before
    // the seal below runs.
    while (pkt.arrival_ns > boundary) {
      port.advance_to(boundary);
      port.flush_hooks();
      seal(false, boundary);
      boundary += static_cast<Timestamp>(step);
    }
    port.offer(pkt);
  }
  while (!port.queue_empty()) {
    port.advance_to(boundary);
    port.flush_hooks();
    seal(false, boundary);
    boundary += static_cast<Timestamp>(step);
  }
  // The queue is empty, so the final chunk never carries records; it is the
  // shard's end-of-stream marker and carries the control layer's final
  // sidecar (finalize-time state).
  port.drain();
  seal(true, boundary);
  drain_ns_[p] += watch.elapsed_ns();
}

}  // namespace pq::sim
