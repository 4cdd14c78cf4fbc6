// replay_dq_archive — the offline "trace in, answers out" path with every
// expensive layer on: a seeded 4-port web-search trace through
// control::ShardedSystem::run (2 workers, batch 256) with data-plane-query
// captures firing (depth threshold 400 cells) and a v2 store::Archive
// attached; then live culprit queries, sampled-victim diagnoses, a restart
// (store::ArchiveReader open) and as-of queries through the archive.
#include <filesystem>
#include <memory>
#include <optional>

#include "common.h"
#include "ground/metrics.h"
#include "control/sharded_analysis.h"
#include "store/archive.h"
#include "store/archive_reader.h"

namespace perfbench {

namespace {

using namespace pq;

constexpr std::uint32_t kPorts = 4;
constexpr Duration kSpan = 100'000'000;      // 100 ms of traffic per port
constexpr Duration kPollPeriod = 1'000'000;  // ~100 checkpoints per port
constexpr unsigned kThreads = 2;
constexpr std::uint32_t kBatch = 256;
constexpr std::size_t kVictims = 256;
constexpr int kLivePerPort = 4;  // 32 live queries per iteration
constexpr int kHorizons = 16;

control::ShardedSystem::Config system_config() {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    cfg.ports[p].port_id = p;
    cfg.ports[p].collect_depth_series = false;
  }
  cfg.pipeline = pipeline_config();
  cfg.pipeline.dq_depth_threshold_cells = 400;
  cfg.analysis.poll_period_ns = kPollPeriod;
  return cfg;
}

store::ArchiveOptions archive_options(const std::string& dir) {
  store::ArchiveOptions o;
  o.dir = dir;
  o.format_version = store::kFormatVersionV2;
  o.fsync = store::FsyncPolicy::kNone;
  return o;
}

sim::ShardedEngine::RunOptions run_options() {
  sim::ShardedEngine::RunOptions o;
  o.threads = kThreads;
  o.batch = kBatch;
  o.epoch_ns = control::ShardedSystem::Config{}.epoch_ns;
  return o;
}

/// ShardedSystem's wiring rebuilt from the same public parts, with a
/// TracingHook between each engine port and its PortPipeline, a
/// TracingObserver between each pipeline and its AnalysisProgram, and a
/// TracingSink in front of each ArchiveWriter.
struct TracedSystem {
  TracedSystem(const control::ShardedSystem::Config& cfg, Tracer& tracer,
               store::Archive& archive)
      : engine(cfg.ports), pipeline(cfg.pipeline) {
    for (std::uint32_t p = 0; p < cfg.ports.size(); ++p) {
      lanes.push_back(&tracer.lane("shard" + std::to_string(p)));
      pipeline.enable_port(cfg.ports[p].port_id);
    }
    for (std::uint32_t p = 0; p < cfg.ports.size(); ++p) {
      hooks.push_back(std::make_unique<TracingHook>(&pipeline.shard(p),
                                                    lanes[p]));
      engine.add_hook(p, hooks.back().get());
    }
    engine.set_forwarding([](const Packet& pk) { return pk.egress_hint; });
    analysis = std::make_unique<control::ShardedAnalysis>(pipeline,
                                                          cfg.analysis);
    engine.set_epoch_hooks(&analysis->epoch_hooks());
    archive.attach(pipeline, *analysis);
    for (std::uint32_t p = 0; p < cfg.ports.size(); ++p) {
      auto& pipe = pipeline.shard(p).pipeline();
      observers.push_back(std::make_unique<TracingObserver>(
          &analysis->program(p), lanes[p]));
      pipe.set_observer(observers.back().get());
      sinks.push_back(std::make_unique<TracingSink>(
          &archive.writer(p, pipe.windows().params(),
                          pipe.monitor().params().levels()),
          lanes[p]));
      analysis->program(p).set_sink(sinks.back().get());
    }
  }

  /// ShardedSystem::run's body.
  void run(std::vector<Packet> packets, const sim::ShardedEngine::RunOptions& o,
           Lane* main) {
    {
      const ScopedSpan s(main, "run");
      analysis->begin_epoch_run();
      engine.run(std::move(packets), o);
    }
    const ScopedSpan s(main, "control.finalize");
    Timestamp end = 0;
    for (std::uint32_t p = 0; p < engine.num_ports(); ++p) {
      end = std::max(end, engine.port(p).stats().last_departure);
    }
    analysis->finalize(end + 1);
  }

  sim::ShardedEngine engine;
  core::ShardedPipeline pipeline;
  std::unique_ptr<control::ShardedAnalysis> analysis;
  std::vector<Lane*> lanes;
  std::vector<std::unique_ptr<TracingHook>> hooks;
  std::vector<std::unique_ptr<TracingObserver>> observers;
  std::vector<std::unique_ptr<TracingSink>> sinks;
};

/// Deterministic victim sample, chosen by the trace's seed.
std::vector<VictimCase> sample_victims(const sim::ShardedEngine& engine,
                                       std::uint64_t seed) {
  std::vector<VictimCase> out;
  Rng rng(seed * 7919 + 17);
  for (std::uint32_t p = 0; p < engine.num_ports(); ++p) {
    perfbench::sample_victims(engine.port(p).records(), p, kVictims / kPorts,
                              rng, out);
  }
  return out;
}

struct Interval {
  std::uint32_t port;
  Timestamp lo;
  Timestamp hi;
};

/// The fixed live-query set: kLivePerPort windows of span/8 per port.
std::vector<Interval> live_set() {
  std::vector<Interval> out;
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    for (int i = 0; i < kLivePerPort; ++i) {
      const Timestamp lo = kSpan / 8 + static_cast<Timestamp>(i) * (kSpan / 6);
      out.push_back({p, lo, lo + kSpan / 8});
    }
  }
  return out;
}

class Workload {
 public:
  Workload(const RunConfig& cfg, Report& r) : cfg_(cfg), r_(r) {
    const std::int64_t g0 = now_ns();
    std::size_t packets = 0;
    for (std::size_t k = 0; k < kTraces; ++k) {
      inputs_.push_back(
          {web_search_trace(kPorts, kSpan, cfg.seed * kTraces + k), {}});
      packets += inputs_.back().packets.size();
    }
    std::printf("input generation: %.3f s (%zu traces, %zu packets, seed "
                "%llu)\n",
                seconds_between(g0, now_ns()), kTraces, packets,
                static_cast<unsigned long long>(cfg.seed));
  }

  void run() {
    const Schedule schedule(cfg_);
    Tracer tracer;
    for (std::uint64_t i = 0; schedule.more(i); ++i) {
      const bool traced = schedule.traced(i);
      if (traced) tracer.clear();
      const std::size_t k = schedule.input(i);
      iteration(k, inputs_[k], traced ? &tracer : nullptr);
      ++r_.iterations;
    }
    if (cfg_.trace && !cfg_.trace_path.empty()) {
      tracer.write(cfg_.trace_path, cfg_.workload);
    }
  }

 private:
  struct Input {
    std::vector<Packet> packets;
    std::vector<VictimCase> victims;  ///< sampled on the trace's first run
  };

  void iteration(std::size_t k, Input& in, Tracer* tracer) {
    const control::ShardedSystem::Config scfg = system_config();
    const std::string dir = cfg_.workdir + "/archive";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::vector<Packet> input = in.packets;  // the copy run() consumes

    Lane* main = tracer != nullptr ? &tracer->lane("main") : nullptr;
    std::optional<ScopedSpan> root;
    root.emplace(main, "iteration");

    // --- set-up: program-side construction until input can be offered.
    const std::int64_t t0 = now_ns();
    std::optional<control::ShardedSystem> sys;
    std::optional<TracedSystem> traced;
    std::optional<store::Archive> archive;
    {
      const ScopedSpan s(main, "setup");
      archive.emplace(archive_options(dir));
      if (tracer != nullptr) {
        traced.emplace(scfg, *tracer, *archive);
      } else {
        sys.emplace(scfg);
        archive->attach(sys->pipeline(), sys->analysis());
      }
    }
    const std::int64_t t1 = now_ns();

    // --- ingest: first offer until the archive is closed (durable).
    {
      const ScopedSpan s(main, "ingest");
      if (traced) {
        traced->run(std::move(input), run_options(), main);
      } else {
        sys->run(std::move(input), run_options());
      }
      const ScopedSpan c(main, "store.close");
      archive->close();
    }
    const std::int64_t t2 = now_ns();
    sim::ShardedEngine& engine = traced ? traced->engine : sys->engine();
    core::ShardedPipeline& pipeline =
        traced ? traced->pipeline : sys->pipeline();
    control::ShardedAnalysis& analysis =
        traced ? *traced->analysis : sys->analysis();

    if (in.victims.empty()) {
      in.victims = sample_victims(engine, cfg_.seed * kTraces + k);
    }

    // --- live queries: fixed set, closed loop, one caller.
    const auto live = live_set();
    std::vector<core::FlowCounts> live_answers;
    std::vector<double> live_us;
    for (const Interval& q : live) {
      const std::int64_t a = now_ns();
      control::AnalysisProgram::IntervalAnswer tw;
      {
        const ScopedSpan s(main, "control.query");
        tw = analysis.query_time_windows_detail(q.port, q.lo, q.hi);
      }
      const std::int64_t b = now_ns();
      control::AnalysisProgram::MonitorAnswer qm;
      {
        const ScopedSpan s(main, "control.query");
        qm = analysis.program(q.port).query_queue_monitor_detail(
            pipeline.monitor_partition(0), q.lo + kSpan / 16);
      }
      const std::int64_t c = now_ns();
      live_us.push_back(static_cast<double>(b - a) / 1e3);
      live_us.push_back(static_cast<double>(c - b) / 1e3);
      r_.attempted += 2;
      r_.failed += (partial(tw.coverage) ? 1 : 0) +
                    (partial(qm.confidence) ? 1 : 0);
      live_answers.push_back(std::move(tw.counts));
    }

    // --- sampled-victim diagnosis: direct (time windows over the victim's
    // queuing interval) and original culprits (monitor at its enqueue).
    std::vector<double> attrib_ms;
    double precision_sum = 0.0;
    for (const VictimCase& v : in.victims) {
      const std::int64_t a = now_ns();
      control::AnalysisProgram::IntervalAnswer direct;
      {
        const ScopedSpan s(main, "control.query");
        direct = analysis.query_time_windows_detail(v.port, v.enq, v.deq);
        analysis.query_queue_monitor(v.port, v.enq);
      }
      attrib_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      ++r_.attempted;
      if (partial(direct.coverage)) ++r_.failed;
      precision_sum +=
          ground::flow_count_accuracy(direct.counts, v.truth).precision;
    }

    // --- restart: recovery scan until the archive can answer.
    const std::int64_t t3 = now_ns();
    std::optional<store::ArchiveReader> reader;
    {
      const ScopedSpan s(main, "store.recovery");
      store::ReaderOptions ro;
      ro.threads = kThreads;
      reader.emplace(dir, ro);
    }
    const std::int64_t t4 = now_ns();

    // --- as-of queries at horizons spread over the span.
    std::vector<double> arch_ms;
    std::uint64_t archive_queries = 0;
    for (int h = 0; h < kHorizons; ++h) {
      const auto port = static_cast<std::uint32_t>(h % kPorts);
      const Timestamp as_of = kSpan * static_cast<Timestamp>(h + 1) / kHorizons;
      std::int64_t a = now_ns();
      std::size_t n = 0;
      {
        const ScopedSpan s(main, "store.query");
        n = reader->query_time_windows(port, as_of - kSpan / kHorizons, as_of,
                                       0, as_of)
                .size();
      }
      std::int64_t b = now_ns();
      arch_ms.push_back(static_cast<double>(b - a) / 1e6);
      a = now_ns();
      {
        const ScopedSpan s(main, "store.query");
        n += reader
                 ->query_queue_monitor(port, as_of - kSpan / (2 * kHorizons), 0,
                                       as_of)
                 .size();
      }
      b = now_ns();
      arch_ms.push_back(static_cast<double>(b - a) / 1e6);
      archive_queries += 2;
      r_.attempted += 2;
      if (n == 0) r_.failed += 2;
    }
    root.reset();

    // --- output checks (outside every timed section).
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (reader->query_time_windows(live[i].port, live[i].lo, live[i].hi) !=
          live_answers[i]) {
        ++mismatched;
      }
    }
    r_.check(mismatched == 0,
             std::to_string(mismatched) +
                 " archived answers at the final horizon differ from live");
    std::uint64_t dequeued = 0, dropped = 0;
    for (std::uint32_t p = 0; p < engine.num_ports(); ++p) {
      dequeued += engine.port(p).stats().dequeued;
      dropped += engine.port(p).stats().dropped;
    }
    r_.check(dequeued + dropped == in.packets.size(),
             "dequeued + dropped != packets offered");
    const store::WriterStats ws = archive->stats();
    r_.check_repeat(k,
                    {{"packets", in.packets.size()},
                     {"dequeued", dequeued},
                     {"dropped", dropped},
                     {"dq_fires", pipeline.dq_triggers_fired()},
                     {"archive_blocks", ws.blocks_appended}},
                    in.victims.empty()
                        ? 0.0
                        : precision_sum /
                              static_cast<double>(in.victims.size()));

    const double ingest_pps =
        static_cast<double>(in.packets.size()) / seconds_between(t1, t2);
    if (tracer == nullptr) {
      r_.add_iteration(seconds_between(t0, t1), ingest_pps,
                       seconds_between(t3, t4), live_us, attrib_ms, arch_ms);
      return;
    }
    r_.traced_ingest_pps.push_back(ingest_pps);

    // --- per-layer breakdown of the traced iteration.
    const auto self_main = tracer->self_times("main");
    const auto self_sh = tracer->self_times("shard");
    double drain = 0.0, drain_max = 0.0;
    for (std::uint32_t p = 0; p < engine.num_ports(); ++p) {
      const double d = static_cast<double>(engine.drain_ns(p)) / 1e9;
      drain += d;
      drain_max = std::max(drain_max, d);
    }
    double hooks_total = 0.0;  // every shard span sits under a hook span
    for (const auto& [name, s] : self_sh) hooks_total += s;
    const double append = at(self_sh, "store.append") +
                          at(self_sh, "store.append_dq");
    std::map<std::string, double> L;
    L["sim.drain_s"] = drain - hooks_total;
    L["sim.ns_per_pkt"] =
        (drain - hooks_total) * 1e9 / static_cast<double>(in.packets.size());
    L["sim.handoff_s"] = at(self_main, "run") - drain_max;
    L["sim.shard_skew_x"] =
        drain > 0.0 ? drain_max / (drain / engine.num_ports()) : 0.0;
    L["sim.drops"] = static_cast<double>(dropped);
    L["core.absorb_s"] = at(self_sh, "core.absorb");
    L["core.packets"] = static_cast<double>(pipeline.packets_seen());
    L["core.dq_fires"] = static_cast<double>(pipeline.dq_triggers_fired());
    std::uint64_t copy_bytes = 0;
    for (std::uint32_t p = 0; p < pipeline.num_shards(); ++p) {
      for (const auto& cap : analysis.program(p).dq_captures(0)) {
        copy_bytes += capture_bytes(cap);
      }
    }
    L["core.dq_copy_mb"] = static_cast<double>(copy_bytes) / 1e6;
    L["control.poll_s"] = poll_seconds(analysis) - at(self_sh, "store.append");
    L["control.polls"] = static_cast<double>(analysis.polls_performed());
    L["control.poll_mb"] = static_cast<double>(analysis.bytes_polled()) / 1e6;
    L["control.query_s"] = at(self_main, "control.query");
    L["store.append_s"] = append;
    L["store.blocks"] = static_cast<double>(ws.blocks_appended);
    L["store.written_mb"] = static_cast<double>(ws.bytes_appended) / 1e6;
    L["store.compression_x"] =
        ws.bytes_appended > 0 ? static_cast<double>(ws.logical_bytes) /
                                    static_cast<double>(ws.bytes_appended)
                              : 0.0;
    L["store.close_s"] = at(self_main, "store.close");
    L["store.recovery_blocks"] =
        static_cast<double>(reader->stats().blocks_recovered);
    L["store.query_s"] = at(self_main, "store.query");
    L["store.blocks_bypassed_per_query"] =
        static_cast<double>(reader->seek_stats().blocks_bypassed) /
        static_cast<double>(archive_queries);

    // Captures' full cost: the same egress stream replayed on one thread
    // with captures on, minus the replay with captures off.
    std::vector<std::vector<wire::TelemetryRecord>> per_port;
    for (std::uint32_t p = 0; p < engine.num_ports(); ++p) {
      per_port.push_back(engine.port(p).records());
    }
    core::PipelineConfig no_dq = scfg.pipeline;
    no_dq.dq_depth_threshold_cells = 0;
    L["control.dq_capture_s"] =
        replay_cost(per_port, scfg.pipeline, scfg.analysis, kBatch).absorb_s -
        replay_cost(per_port, no_dq, scfg.analysis, kBatch).absorb_s;

    std::map<std::string, double> direct;
    for (const char* k : {"setup", "control.finalize", "store.close",
                          "control.query", "store.recovery", "store.query"}) {
      direct[k] = at(self_main, k);
    }
    double wall = 0.0;
    for (const auto& [name, s] : self_main) wall += s;
    add_shares(L, wall, direct,
               {{"sim", L["sim.drain_s"]},
                {"core", L["core.absorb_s"]},
                {"control", at(self_sh, "control.poll") +
                                at(self_sh, "control.dq_trigger")},
                {"store", append}},
               at(self_main, "run"), kThreads);
    r_.layers.push_back(std::move(L));
  }

  const RunConfig& cfg_;
  Report& r_;
  std::vector<Input> inputs_;
};

}  // namespace

void run_replay_dq_archive(const RunConfig& cfg, Report& r) {
  Workload(cfg, r).run();
}

}  // namespace perfbench
