#include "control/sharded_analysis.h"

#include <algorithm>

#include "core/window_filter.h"

namespace pq::control {

ShardedAnalysis::ShardedAnalysis(core::ShardedPipeline& pipeline,
                                 AnalysisConfig cfg,
                                 faults::ShardedFaultPlan* faults)
    : pipe_(pipeline) {
  programs_.reserve(pipeline.num_shards());
  for (std::uint32_t i = 0; i < pipeline.num_shards(); ++i) {
    auto& shard = pipeline.shard(i);
    programs_.push_back(
        std::make_unique<AnalysisProgram>(shard.pipeline(), cfg));
    if (faults != nullptr) {
      programs_.back()->set_read_faults(faults->read_faults(shard.egress_port()));
    }
  }
  dq_cursors_.assign(programs_.size(), 0);
  epoch_hooks_.seal = [this](std::uint32_t shard, const sim::EpochSeal& s) {
    return seal_epoch(shard, s);
  };
  epoch_hooks_.ready = [this](std::uint64_t /*epoch*/,
                              const std::vector<std::shared_ptr<void>>& sides,
                              bool /*last_epoch*/) { epoch_ready(sides); };
}

void ShardedAnalysis::begin_epoch_run() {
  for (std::uint32_t i = 0; i < programs_.size(); ++i) {
    dq_cursors_[i] = program_unchecked(i).dq_captures(0).size();
  }
  merged_dq_.clear();
}

std::shared_ptr<void> ShardedAnalysis::seal_epoch(std::uint32_t shard,
                                                  const sim::EpochSeal&) {
  // Worker side: runs on the thread that owns `shard`, right after the
  // engine advanced the port to the boundary and flushed the hook batch, so
  // the captures below are exactly this epoch's firings. Everything the
  // consumer will touch is copied here.
  auto side = std::make_shared<std::vector<ShardDq>>();
  const auto& captures = program_unchecked(shard).dq_captures(0);
  side->reserve(captures.size() - dq_cursors_[shard]);
  for (std::size_t seq = dq_cursors_[shard]; seq < captures.size(); ++seq) {
    ShardDq d;
    d.global_prefix = shard;
    d.seq = seq;
    d.notification = captures[seq].notification;
    d.notification.port_prefix = shard;
    side->push_back(d);
  }
  dq_cursors_[shard] = captures.size();
  return side;
}

void ShardedAnalysis::epoch_ready(
    const std::vector<std::shared_ptr<void>>& sidecars) {
  // Consumer side: one epoch's sidecars in shard order. Each shard's DQs
  // are in firing order and every timestamp lies in this epoch's span, so
  // appending in shard order and stable-sorting the appended span on the
  // timestamp alone extends the (deq_timestamp, shard, firing order) merge.
  const std::size_t base = merged_dq_.size();
  for (std::uint32_t s = 0; s < sidecars.size(); ++s) {
    if (sidecars[s] == nullptr) continue;
    const auto& dqs =
        *static_cast<const std::vector<ShardDq>*>(sidecars[s].get());
    merged_dq_.insert(merged_dq_.end(), dqs.begin(), dqs.end());
  }
  std::stable_sort(merged_dq_.begin() + static_cast<std::ptrdiff_t>(base),
                   merged_dq_.end(), [](const ShardDq& a, const ShardDq& b) {
                     return a.notification.deq_timestamp <
                            b.notification.deq_timestamp;
                   });
}

void ShardedAnalysis::finalize(Timestamp end_time) {
  for (auto& p : programs_) p->finalize(end_time);
}

std::vector<std::pair<FlowId, double>> ShardedAnalysis::top_culprits(
    std::uint32_t global_prefix, Timestamp t1, Timestamp t2,
    std::size_t k) const {
  return core::top_k_flows(query_time_windows(global_prefix, t1, t2), k);
}

HealthStats ShardedAnalysis::health() const {
  HealthStats total;
  for (const auto& p : programs_) total += p->health();
  return total;
}

std::uint64_t ShardedAnalysis::polls_performed() const {
  std::uint64_t n = 0;
  for (const auto& p : programs_) n += p->polls_performed();
  return n;
}

std::uint64_t ShardedAnalysis::bytes_polled() const {
  std::uint64_t n = 0;
  for (const auto& p : programs_) n += p->bytes_polled();
  return n;
}

ShardedSystem::ShardedSystem(Config cfg)
    : engine_(cfg.ports), pipeline_(cfg.pipeline), epoch_ns_(cfg.epoch_ns) {
  if (cfg.faults.has_value()) {
    faults_ = std::make_unique<faults::ShardedFaultPlan>(*cfg.faults);
  }
  for (std::uint32_t i = 0; i < cfg.ports.size(); ++i) {
    const std::uint32_t port_id = cfg.ports[i].port_id;
    const std::uint32_t prefix = pipeline_.enable_port(port_id);
    sim::EgressHook* hook = &pipeline_.shard(prefix);
    if (faults_ != nullptr) {
      hook = faults_->attach_egress_chain(port_id, hook);
    }
    engine_.add_hook(i, hook);
  }
  engine_.set_forwarding([](const Packet& p) { return p.egress_hint; });
  analysis_ = std::make_unique<ShardedAnalysis>(pipeline_, cfg.analysis,
                                                faults_.get());
  engine_.set_epoch_hooks(&analysis_->epoch_hooks());
}

void ShardedSystem::run(std::vector<Packet> packets, unsigned threads,
                        std::uint32_t batch) {
  run(std::move(packets), default_run_options(threads, batch));
}

void ShardedSystem::run(std::vector<Packet> packets,
                        const sim::ShardedEngine::RunOptions& opts) {
  analysis_->begin_epoch_run();
  engine_.run(std::move(packets), opts);
  finalize_run();
}

void ShardedSystem::run_partitioned(std::vector<std::vector<Packet>> shards,
                                    const sim::ShardedEngine::RunOptions& opts) {
  analysis_->begin_epoch_run();
  engine_.run_partitioned(std::move(shards), opts);
  finalize_run();
}

void ShardedSystem::finalize_run() {
  Timestamp end = 0;
  for (std::uint32_t p = 0; p < engine_.num_ports(); ++p) {
    end = std::max(end, engine_.port(p).stats().last_departure);
  }
  analysis_->finalize(end + 1);
}

}  // namespace pq::control
