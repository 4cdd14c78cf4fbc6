// fabric_incast — the network-wide path: the traffic::cross_rack_incast
// leaf-spine scenario (2 leaves, 1 spine, 4 hosts per leaf), seeded and
// scaled to an 80 ms incast, through net::NetworkEngine::run (pass-1
// transport, then pass-2 per-switch replay on 2 threads) with DQ off and a
// store::Archive on every switch. Then live queries at each victim hop,
// repeated net::NetworkAnalysis::attribute calls for the victim, a restart
// (every switch's archive re-opened) and as-of queries at the attributed
// hop.
#include <filesystem>
#include <memory>
#include <optional>

#include "common.h"
#include "net/network_analysis.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "traffic/net_scenarios.h"

namespace perfbench {

namespace {

using namespace pq;

constexpr Duration kIncast = 80'000'000;
constexpr unsigned kThreads = 2;
constexpr std::uint32_t kBatch = 256;
constexpr int kAttributions = 16;
constexpr int kLivePerHop = 32;
constexpr int kHorizons = 16;
constexpr std::size_t kTopK = 8;

net::NetworkConfig network_config() {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 1;
  lsp.hosts_per_leaf = 4;
  net::NetworkConfig ncfg;
  ncfg.topology = net::make_leaf_spine(lsp);
  ncfg.node.pipeline.windows.m0 = 10;
  ncfg.node.pipeline.windows.alpha = 1;
  ncfg.node.pipeline.windows.k = 9;
  ncfg.node.pipeline.windows.num_windows = 4;
  ncfg.node.pipeline.monitor.max_depth_cells = 25000;
  ncfg.node.pipeline.monitor.granularity_cells = 8;
  // Half the window-set period (t_set = 4.2 ms here): checkpoints overlap,
  // so every interval behind the last poll is answered in full.
  ncfg.node.analysis.poll_period_ns = 2'000'000;
  return ncfg;
}

sim::ShardedEngine::RunOptions run_options() {
  sim::ShardedEngine::RunOptions o;
  o.threads = kThreads;
  o.batch = kBatch;
  o.epoch_ns = net::NodeConfig{}.epoch_ns;
  return o;
}

std::string switch_dir(const std::string& base, std::uint32_t sw) {
  return base + "/sw" + std::to_string(sw);
}

class Workload {
 public:
  Workload(const RunConfig& cfg, Report& r)
      : cfg_(cfg), r_(r), ncfg_(network_config()) {
    const std::int64_t g0 = now_ns();
    std::uint64_t packets = 0;
    for (std::size_t k = 0; k < kTraces; ++k) {
      traffic::CrossRackIncastConfig ic;
      ic.receiver_host = 0;
      ic.senders = 6;
      ic.sender_gbps = 1.7;  // 1.02x the receiver downlink: bounded backlog
      ic.duration_ns = kIncast;
      ic.seed = cfg.seed * kTraces + k;
      Input in{traffic::cross_rack_incast(ncfg_.topology, ic), 0};
      for (const auto& inj : in.scenario.injections) {
        in.injected += inj.packets.size();
      }
      packets += in.injected;
      inputs_.push_back(std::move(in));
    }
    std::printf("input generation: %.3f s (%zu traces, %llu packets, seed "
                "%llu)\n",
                seconds_between(g0, now_ns()), kTraces,
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(cfg.seed));
  }

  void run() {
    // 192 live queries per iteration (32 windows x 2 kinds x 3 hops): at
    // least 1152 per run, so p99 always has ten samples beyond it.
    r_.live_tail_pct = 99.0;
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
    traffic::NetScenario scenario;
    std::uint64_t injected = 0;
  };

  void iteration(std::size_t k, const Input& in, Tracer* tracer) {
    const std::string base = cfg_.workdir + "/fabric";
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
    auto injections = in.scenario.injections;  // the copy run() consumes
    Lane* main = tracer != nullptr ? &tracer->lane("main") : nullptr;
    std::optional<ScopedSpan> root;
    root.emplace(main, "iteration");

    // --- set-up: every switch's stack and archive.
    const std::int64_t t0 = now_ns();
    std::optional<net::NetworkEngine> net;
    std::vector<std::unique_ptr<store::Archive>> archives;
    std::vector<std::unique_ptr<TracingObserver>> observers;
    std::vector<std::unique_ptr<TracingSink>> sinks;
    {
      const ScopedSpan s(main, "setup");
      net.emplace(ncfg_);
      for (std::uint32_t sw = 0; sw < net->num_nodes(); ++sw) {
        store::ArchiveOptions ao;
        ao.dir = switch_dir(base, sw);
        ao.format_version = store::kFormatVersionV2;
        archives.push_back(std::make_unique<store::Archive>(ao));
        control::ShardedSystem& node = net->node(sw);
        archives.back()->attach(node.pipeline(), node.analysis());
        if (tracer == nullptr) continue;
        for (std::uint32_t p = 0; p < node.pipeline().num_shards(); ++p) {
          Lane* lane = &tracer->lane("sw" + std::to_string(sw) + ".shard" +
                                     std::to_string(p));
          auto& pipe = node.pipeline().shard(p).pipeline();
          observers.push_back(std::make_unique<TracingObserver>(
              &node.analysis().program(p), lane));
          pipe.set_observer(observers.back().get());
          sinks.push_back(std::make_unique<TracingSink>(
              &archives.back()->writer(p, pipe.windows().params(),
                                       pipe.monitor().params().levels()),
              lane));
          node.analysis().program(p).set_sink(sinks.back().get());
        }
      }
    }
    const std::int64_t t1 = now_ns();

    // --- ingest: both passes, until every switch's archive is closed.
    {
      const ScopedSpan s(main, "ingest");
      {
        const ScopedSpan n(main, "run");
        net->run(std::move(injections), run_options());
      }
      const ScopedSpan c(main, "store.close");
      for (auto& a : archives) a->close();
    }
    const std::int64_t t2 = now_ns();

    // --- attribution, repeated for the victim.
    const net::NetworkAnalysis analysis(*net);
    std::vector<double> attrib_ms;
    net::AttributionReport report;
    for (int i = 0; i < kAttributions; ++i) {
      const std::int64_t a = now_ns();
      {
        const ScopedSpan s(main, "net.attribute");
        report = analysis.attribute(in.scenario.victim, kTopK);
      }
      attrib_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      ++r_.attempted;
      if (partial(report.coverage)) ++r_.failed;
    }

    // --- live queries at every hop of the victim's path.
    std::vector<double> live_us;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;  // sw, prefix
    for (const net::HopDelay& h : report.hops) {
      const auto prefix =
          net->node(h.switch_id).pipeline().port_prefix(h.egress_port);
      if (prefix.has_value()) hops.emplace_back(h.switch_id, *prefix);
    }
    // Windows over the first 80% of the incast, all behind checkpoints.
    const Timestamp lo0 = 100'000;
    const Duration w = kIncast / (kLivePerHop + 4);
    for (const auto& [sw, prefix] : hops) {
      const control::ShardedAnalysis& sa = net->node(sw).analysis();
      for (int i = 0; i < kLivePerHop; ++i) {
        const Timestamp lo = lo0 + static_cast<Timestamp>(i) * w;
        std::int64_t a = now_ns();
        control::AnalysisProgram::IntervalAnswer tw;
        {
          const ScopedSpan s(main, "control.query");
          tw = sa.query_time_windows_detail(prefix, lo, lo + w);
        }
        std::int64_t b = now_ns();
        live_us.push_back(static_cast<double>(b - a) / 1e3);
        a = now_ns();
        control::AnalysisProgram::MonitorAnswer qm;
        {
          const ScopedSpan s(main, "control.query");
          qm = sa.program(prefix).query_queue_monitor_detail(0, lo + w / 2);
        }
        b = now_ns();
        live_us.push_back(static_cast<double>(b - a) / 1e3);
        r_.attempted += 2;
        r_.failed += (partial(tw.coverage) ? 1 : 0) +
                      (partial(qm.confidence) ? 1 : 0);
      }
    }

    // --- restart: every switch's archive recovered.
    const std::int64_t t3 = now_ns();
    std::vector<std::unique_ptr<store::ArchiveReader>> readers;
    {
      const ScopedSpan s(main, "store.recovery");
      for (std::uint32_t sw = 0; sw < net->num_nodes(); ++sw) {
        store::ReaderOptions ro;
        ro.threads = kThreads;
        readers.push_back(
            std::make_unique<store::ArchiveReader>(switch_dir(base, sw), ro));
      }
    }
    const std::int64_t t4 = now_ns();

    // --- as-of queries at the attributed hop.
    const auto culprit_prefix = net->node(report.culprit_switch)
                                    .pipeline()
                                    .port_prefix(report.culprit_port)
                                    .value_or(0);
    store::ArchiveReader& reader = *readers.at(report.culprit_switch);
    std::vector<double> arch_ms;
    std::uint64_t archive_queries = 0;
    const Timestamp end = net->stats().last_event_ns;
    for (int h = 0; h < kHorizons; ++h) {
      const Timestamp as_of = end * static_cast<Timestamp>(h + 1) / kHorizons;
      std::size_t n = 0;
      std::int64_t a = now_ns();
      {
        const ScopedSpan s(main, "store.query");
        n = reader
                .query_time_windows(culprit_prefix, as_of - end / 16, as_of, 0,
                                    as_of)
                .size();
      }
      arch_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      a = now_ns();
      {
        const ScopedSpan s(main, "store.query");
        n += reader.query_queue_monitor(culprit_prefix, as_of - end / 32, 0,
                                        as_of)
                 .size();
      }
      arch_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      archive_queries += 2;
      r_.attempted += 2;
      if (n == 0) r_.failed += 2;
    }
    root.reset();

    // --- output checks.
    const net::NetRunStats& st = net->stats();
    r_.check(report.culprit_switch == in.scenario.expected_culprit_switch &&
                 report.culprit_port == in.scenario.expected_culprit_port,
             "attribution named the wrong hop");
    r_.check(report.direct_accuracy.precision >= 0.8,
             "hop attribution precision below 0.8");
    r_.check(st.delivered + st.dropped + st.ttl_exceeded + st.unroutable ==
                 st.injected && st.injected == in.injected,
             "delivered + dropped + TTL + unroutable != injected");
    r_.check(!hops.empty(), "the victim crossed no recorded hop");
    r_.check_repeat(k,
                    {{"injected", st.injected},
                     {"delivered", st.delivered},
                     {"dropped", st.dropped},
                     {"hops", st.total_hops},
                     {"transport_epochs", st.transport_epochs}},
                    report.direct_accuracy.precision);

    const double ingest_pps =
        static_cast<double>(in.injected) / seconds_between(t1, t2);
    if (tracer == nullptr) {
      r_.add_iteration(seconds_between(t0, t1), ingest_pps,
                       seconds_between(t3, t4), live_us, attrib_ms, arch_ms);
      return;
    }
    r_.traced_ingest_pps.push_back(ingest_pps);

    // --- per-layer breakdown of the traced iteration.
    const auto self_main = tracer->self_times("main");
    const auto self_sh = tracer->self_times("sw");
    const double append =
        at(self_sh, "store.append") + at(self_sh, "store.append_dq");
    double drain = 0.0, polls = 0.0, poll_mb = 0.0, packets = 0.0, drops = 0.0;
    double absorb = 0.0, poll_s = 0.0, dq_fires = 0.0;
    std::map<std::string, double> L;
    for (std::uint32_t sw = 0; sw < net->num_nodes(); ++sw) {
      const control::ShardedSystem& node = net->node(sw);
      std::vector<std::vector<wire::TelemetryRecord>> per_port;
      for (std::uint32_t p = 0; p < node.engine().num_ports(); ++p) {
        drain += static_cast<double>(node.engine().drain_ns(p)) / 1e9;
        drops += static_cast<double>(node.engine().port(p).stats().dropped);
        per_port.push_back(node.engine().port(p).records());
      }
      polls += static_cast<double>(node.analysis().polls_performed());
      poll_mb += static_cast<double>(node.analysis().bytes_polled()) / 1e6;
      packets += static_cast<double>(node.pipeline().packets_seen());
      dq_fires += static_cast<double>(node.pipeline().dq_triggers_fired());
      poll_s += poll_seconds(node.analysis());
      // The nodes' engines call their PortPipelines directly, so absorb is
      // costed by replaying each switch's egress streams on one thread.
      const ReplayCost rc = replay_cost(per_port, ncfg_.node.pipeline,
                                        ncfg_.node.analysis, kBatch);
      absorb += rc.absorb_s - rc.poll_s;
    }
    // Pass 2 alone: each switch's induced trace replayed through a
    // standalone ShardedSystem with an archive, which the engine documents
    // as byte-identical to its node.
    double pass2 = 0.0;
    for (std::uint32_t sw = 0; sw < net->num_nodes(); ++sw) {
      control::ShardedSystem::Config nc;
      nc.ports = ncfg_.topology.switches[sw].ports;
      for (sim::PortConfig& p : nc.ports) {
        p.collect_depth_series = ncfg_.node.collect_depth_series;
      }
      nc.pipeline = ncfg_.node.pipeline;
      nc.analysis = ncfg_.node.analysis;
      nc.epoch_ns = ncfg_.node.epoch_ns;
      const std::string dir = base + "/pass2-" + std::to_string(sw);
      auto trace = net->induced_trace(sw);
      const std::int64_t a = now_ns();
      control::ShardedSystem solo(nc);
      store::ArchiveOptions ao;
      ao.dir = dir;
      ao.format_version = store::kFormatVersionV2;
      store::Archive archive(ao);
      archive.attach(solo.pipeline(), solo.analysis());
      solo.run(std::move(trace), run_options());
      archive.close();
      pass2 += seconds_between(a, now_ns());
    }
    // poll_seconds() already contains the appends made inside polls.
    L["sim.drain_s"] = drain - absorb - poll_s - at(self_sh, "store.append_dq");
    L["sim.ns_per_pkt"] =
        packets > 0.0 ? L["sim.drain_s"] * 1e9 / packets : 0.0;
    L["sim.drops"] = drops;
    L["core.absorb_s"] = absorb;
    L["core.packets"] = packets;
    L["core.dq_fires"] = dq_fires;
    L["control.poll_s"] = poll_s - at(self_sh, "store.append");
    L["control.polls"] = polls;
    L["control.poll_mb"] = poll_mb;
    L["control.query_s"] = at(self_main, "control.query");
    std::uint64_t blocks = 0, written = 0, logical = 0, recovered = 0;
    for (const auto& a : archives) {
      blocks += a->stats().blocks_appended;
      written += a->stats().bytes_appended;
      logical += a->stats().logical_bytes;
    }
    for (const auto& rd : readers) recovered += rd->stats().blocks_recovered;
    L["store.append_s"] = append;
    L["store.blocks"] = static_cast<double>(blocks);
    L["store.written_mb"] = static_cast<double>(written) / 1e6;
    L["store.compression_x"] =
        written > 0
            ? static_cast<double>(logical) / static_cast<double>(written)
            : 0.0;
    L["store.close_s"] = at(self_main, "store.close");
    L["store.recovery_blocks"] = static_cast<double>(recovered);
    L["store.query_s"] = at(self_main, "store.query");
    L["store.blocks_bypassed_per_query"] =
        static_cast<double>(reader.seek_stats().blocks_bypassed) /
        static_cast<double>(archive_queries);
    const double run_s = at(self_main, "run");
    L["net.pass2_s"] = pass2;
    L["net.pass1_s"] = run_s - pass2;
    L["net.transport_epochs"] = static_cast<double>(st.transport_epochs);
    L["net.hops"] = static_cast<double>(st.total_hops);
    L["net.attribute_s"] = at(self_main, "net.attribute");

    // Pass 1 runs on the caller alone; pass 2's busy time (sim, absorb,
    // polls, appends on the 2 workers) fills the rest of the run.
    std::map<std::string, double> direct;
    for (const char* k : {"setup", "store.close", "net.attribute",
                          "control.query", "store.recovery", "store.query"}) {
      direct[k] = at(self_main, k);
    }
    direct["net.pass1"] = std::max(0.0, L["net.pass1_s"]);
    double wall = 0.0;
    for (const auto& [name, s] : self_main) wall += s;
    add_shares(L, wall, direct,
               {{"sim", L["sim.drain_s"]},
                {"core", absorb},
                {"control", at(self_sh, "control.poll")},
                {"store", append}},
               std::min(run_s, pass2), kThreads);
    r_.layers.push_back(std::move(L));
  }

  const RunConfig& cfg_;
  Report& r_;
  net::NetworkConfig ncfg_;
  std::vector<Input> inputs_;
};

}  // namespace

void run_fabric_incast(const RunConfig& cfg, Report& r) {
  Workload(cfg, r).run();
}

}  // namespace perfbench
