#include "serve/supervisor.h"

#include <algorithm>

#include "common/thread_pin.h"

namespace pq::serve {

sim::EgressContext to_context(const wire::TelemetryRecord& r) {
  sim::EgressContext ctx;
  ctx.flow = r.flow;
  ctx.egress_port = r.egress_port;
  ctx.size_bytes = r.size_bytes;
  ctx.packet_cells = static_cast<std::uint16_t>(bytes_to_cells(r.size_bytes));
  ctx.enq_qdepth = r.enq_qdepth;
  ctx.enq_timestamp = r.enq_timestamp;
  ctx.deq_timedelta = r.deq_timedelta;
  ctx.packet_id = r.packet_id;
  return ctx;
}

void replay_records(std::span<const wire::TelemetryRecord> records,
                    sim::EgressHook& hook, std::size_t batch,
                    sim::PacketBatch& scratch) {
  if (batch <= 1) {
    for (const auto& r : records) hook.on_egress(to_context(r));
    return;
  }
  scratch.reserve(batch);
  for (std::size_t begin = 0; begin < records.size(); begin += batch) {
    const std::size_t end = std::min(records.size(), begin + batch);
    scratch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      scratch.push(to_context(records[i]));
    }
    hook.on_egress_batch(scratch);
  }
}

ShardSupervisor::ShardSupervisor(core::ShardedPipeline& pipeline,
                                 control::ShardedAnalysis& analysis,
                                 faults::ShardedFaultPlan* faults,
                                 SupervisorOptions opts)
    : pipeline_(pipeline), analysis_(analysis), opts_(opts) {
  opts_.batch = std::max<std::size_t>(1, opts_.batch);
  shards_.reserve(pipeline_.num_shards());
  for (std::uint32_t s = 0; s < pipeline_.num_shards(); ++s) {
    auto sh = std::make_unique<Shard>(opts_.queue_capacity);
    // Build the fault chain now, on this thread: ShardedFaultPlan creates
    // plans lazily and the map must not grow once workers are live.
    core::PortPipeline& shard_pipe = pipeline_.shard(s);
    sh->hook = faults != nullptr
                   ? faults->attach_egress_chain(shard_pipe.egress_port(),
                                                 &shard_pipe)
                   : static_cast<sim::EgressHook*>(&shard_pipe);
    shards_.push_back(std::move(sh));
  }
}

ShardSupervisor::~ShardSupervisor() { drain_and_join(); }

void ShardSupervisor::start() {
  if (started_.exchange(true)) return;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
  }
}

void ShardSupervisor::worker_loop(std::uint32_t prefix) {
  Shard& sh = *shards_[prefix];
  if (opts_.pin_threads) {
    sh.cpu.store(pin_current_thread(prefix), std::memory_order_relaxed);
  }
  std::vector<wire::TelemetryRecord> recs;
  sim::PacketBatch pb;
  for (;;) {
    recs.clear();
    const std::size_t n =
        sh.queue.pop_batch(recs, opts_.batch, opts_.pop_wait);
    if (n == 0) {
      if (sh.queue.drained()) break;
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      replay_records(recs, *sh.hook, opts_.batch, pb);
      sh.last_deq = std::max(sh.last_deq, recs.back().deq_timestamp());
    }
    sh.absorbed.fetch_add(n, std::memory_order_relaxed);
    sh.heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
}

Submit ShardSupervisor::submit(const wire::TelemetryRecord& rec) {
  const auto prefix = pipeline_.port_prefix(rec.egress_port);
  if (!prefix.has_value()) {
    rejected_port_.fetch_add(1, std::memory_order_relaxed);
    return Submit::kUnknownPort;
  }
  IngestQueue& q = shards_[*prefix]->queue;
  const IngestQueue::Push p = opts_.overload == OverloadPolicy::kBackpressure
                                  ? q.push_wait(rec)
                                  : q.try_push(rec);
  switch (p) {
    case IngestQueue::Push::kOk:
      submitted_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kOk;
    case IngestQueue::Push::kShed:
      return Submit::kShed;
    case IngestQueue::Push::kClosed:
      return Submit::kClosed;
  }
  return Submit::kClosed;
}

void ShardSupervisor::drain_and_join() {
  if (drained_.exchange(true)) return;
  for (auto& sh : shards_) sh->queue.close();
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  // Final checkpoint at one tick past the newest departure each shard saw
  // (the same end time pq_replay uses). Untouched shards have no horizon
  // to close.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    if (sh.absorbed.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard<std::mutex> lk(sh.mu);
    analysis_.program(s).finalize(sh.last_deq + 1);
  }
}

std::uint32_t ShardSupervisor::check_watchdog() {
  std::uint32_t stalls = 0;
  for (auto& sh : shards_) {
    const std::uint64_t hb = sh->heartbeat.load(std::memory_order_relaxed);
    if (sh->queue.depth() > 0 && hb == sh->heartbeat_seen) ++stalls;
    sh->heartbeat_seen = hb;
  }
  watchdog_stalls_.fetch_add(stalls, std::memory_order_relaxed);
  return stalls;
}

std::uint64_t ShardSupervisor::records_submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

std::uint64_t ShardSupervisor::records_absorbed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->absorbed.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t ShardSupervisor::shed_total() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->queue.shed_total();
  return n;
}

std::uint64_t ShardSupervisor::rejected_port_total() const {
  return rejected_port_.load(std::memory_order_relaxed);
}

std::uint64_t ShardSupervisor::watchdog_stalls_total() const {
  return watchdog_stalls_.load(std::memory_order_relaxed);
}

std::size_t ShardSupervisor::queue_depth() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->queue.depth();
  return n;
}

std::size_t ShardSupervisor::queue_peak_depth() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n = std::max(n, sh->queue.peak_depth());
  return n;
}

bool ShardSupervisor::draining() const {
  return drained_.load(std::memory_order_relaxed);
}

}  // namespace pq::serve
