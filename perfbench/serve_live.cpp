// serve_live — the pq_serve daemon loop run in-process on the modules the
// binary uses: a seeded framed record stream through serve::StreamDecoder
// -> ShardSupervisor (2 ports, backpressure) -> per-shard absorb, with a
// v2 store::Archive attached as `pq_serve --archive-dir` does and DQ off
// (the pipeline default). Live queries go through serve::QueryRouter from
// an open-loop generator at a fixed rate while the pump runs; then
// sampled-victim diagnoses through the router, a query-only restart
// (ArchiveReader + QueryRouter::load_recovered) and as-of archive queries.
#include <pthread.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "common/thread_pin.h"
#include "ground/metrics.h"
#include "control/query_service.h"
#include "serve/feed.h"
#include "serve/query_router.h"
#include "serve/supervisor.h"
#include "sim/sharded_engine.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "wire/trace_io.h"

namespace perfbench {

namespace {

using namespace pq;

constexpr std::uint32_t kPorts = 2;
constexpr Duration kSpan = 400'000'000;      // 400 ms of traffic per port
constexpr Duration kPollPeriod = 4'000'000;  // ~100 checkpoints per port
constexpr std::size_t kChunk = 64 * 1024;    // pq_serve's feed read size
constexpr std::int64_t kQueryPeriodNs = 10'000'000;  // 100 live queries/s
constexpr Duration kLiveWindow = 10'000'000;
constexpr std::size_t kVictims = 128;
constexpr int kHorizons = 8;
constexpr unsigned kRecoveryThreads = 2;

core::PipelineConfig serve_pipeline() { return pipeline_config(); }

control::AnalysisConfig serve_analysis() {
  control::AnalysisConfig a;
  a.poll_period_ns = kPollPeriod;
  return a;
}

/// With at least 4 CPUs each ingest-phase thread gets its own CPU: the two
/// shard workers 0 and 1 (SupervisorOptions::pin_threads, as `pq_serve
/// --pin-threads`), the pump 2 and the query generator 3. Unpinned, the
/// four threads' placement changed from run to run and moved the live
/// query latency by a third.
bool pin_ingest() { return std::thread::hardware_concurrency() >= 4; }

/// Pins the calling thread to one CPU while in scope, then restores its
/// previous affinity (threads started later inherit the mask, and the
/// recovery scan after ingest must keep every CPU).
class ScopedPin {
 public:
  ScopedPin(bool on, unsigned cpu) {
    if (!on) return;
    saved_ = pthread_getaffinity_np(pthread_self(), sizeof mask_, &mask_) == 0;
    if (saved_) pq::pin_current_thread(cpu);
  }
  ~ScopedPin() {
    if (saved_) pthread_setaffinity_np(pthread_self(), sizeof mask_, &mask_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t mask_{};
  bool saved_ = false;
};

/// The live serving stack, in the order pq_serve's Daemon builds it.
struct Stack {
  Stack(const std::string& dir, Tracer* tracer)
      : pipeline(serve_pipeline()) {
    for (std::uint32_t p = 0; p < kPorts; ++p) pipeline.enable_port(p);
    analysis = std::make_unique<control::ShardedAnalysis>(pipeline,
                                                          serve_analysis());
    store::ArchiveOptions ao;
    ao.dir = dir;
    ao.resume = true;
    ao.format_version = store::kFormatVersionV2;
    archive.emplace(ao);
    archive->attach(pipeline, *analysis);
    if (tracer != nullptr) {
      for (std::uint32_t p = 0; p < kPorts; ++p) {
        Lane* lane = &tracer->lane("shard" + std::to_string(p));
        auto& pipe = pipeline.shard(p).pipeline();
        observers.push_back(std::make_unique<TracingObserver>(
            &analysis->program(p), lane));
        pipe.set_observer(observers.back().get());
        sinks.push_back(std::make_unique<TracingSink>(
            &archive->writer(p, pipe.windows().params(),
                             pipe.monitor().params().levels()),
            lane));
        analysis->program(p).set_sink(sinks.back().get());
      }
    }
    serve::SupervisorOptions so;
    so.batch = 256;
    so.pin_threads = pin_ingest();
    so.overload = serve::OverloadPolicy::kBackpressure;
    supervisor = std::make_unique<serve::ShardSupervisor>(pipeline, *analysis,
                                                          nullptr, so);
    router = std::make_unique<serve::QueryRouter>(pipeline, *analysis,
                                                  supervisor.get());
  }

  core::ShardedPipeline pipeline;
  std::unique_ptr<control::ShardedAnalysis> analysis;
  std::optional<store::Archive> archive;
  std::vector<std::unique_ptr<TracingObserver>> observers;
  std::vector<std::unique_ptr<TracingSink>> sinks;
  std::unique_ptr<serve::ShardSupervisor> supervisor;
  std::unique_ptr<serve::QueryRouter> router;
};

control::QueryResponse ask(serve::QueryRouter& router, control::QueryType type,
                           std::uint32_t port, Timestamp t1, Timestamp t2,
                           std::uint64_t id) {
  control::QueryRequest req;
  req.type = type;
  req.port_prefix = port;
  req.t1 = t1;
  req.t2 = t2;
  req.request_id = id;
  return control::decode_response(router.handle(control::encode_request(req)));
}

bool answered(const control::QueryResponse& r) {
  return r.status == control::QueryStatus::kOk ||
         r.status == control::QueryStatus::kPartial;
}

/// Stops the open-loop query thread and joins it when the ingest block
/// ends, whether it ends normally or by an exception.
struct StopProber {
  std::atomic<bool>& running;
  std::thread& thread;
  ~StopProber() {
    running.store(false, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
};

/// One feed: the records a switch would stream to the daemon (the
/// web-search trace queued through the simulator once, before any clock
/// starts), framed, plus sampled victims with record-derived truth.
struct Input {
  std::vector<std::uint8_t> stream;
  std::uint64_t records = 0;
  std::vector<VictimCase> victims;
};

Input make_input(std::uint64_t seed) {
  std::vector<sim::PortConfig> ports(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    ports[p].port_id = p;
    ports[p].collect_depth_series = false;
  }
  sim::ShardedEngine engine(ports);
  engine.set_forwarding([](const Packet& pk) { return pk.egress_hint; });
  engine.run(web_search_trace(kPorts, kSpan, seed), 2, 256);
  Input in;
  const auto records = engine.merged_records();
  in.stream.reserve(records.size() * wire::kRecordFrameBytes);
  for (const auto& rec : records) wire::append_record_frame(in.stream, rec);
  in.records = records.size();

  Rng rng(seed * 104729 + 3);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    sample_victims(engine.port(p).records(), p, kVictims / kPorts, rng,
                   in.victims);
  }
  return in;
}

/// The feed's records split back into per-port streams (for replay_cost).
std::vector<std::vector<wire::TelemetryRecord>> per_port_records(
    const std::vector<std::uint8_t>& stream) {
  serve::StreamDecoder decoder;
  std::vector<wire::TelemetryRecord> all;
  decoder.ingest(stream, all);
  std::vector<std::vector<wire::TelemetryRecord>> out(kPorts);
  for (const auto& r : all) out.at(r.egress_port).push_back(r);
  return out;
}

class Workload {
 public:
  Workload(const RunConfig& cfg, Report& r) : cfg_(cfg), r_(r) {
    const std::int64_t g0 = now_ns();
    std::uint64_t records = 0;
    for (std::size_t k = 0; k < kTraces; ++k) {
      inputs_.push_back(make_input(cfg.seed * kTraces + k));
      records += inputs_.back().records;
    }
    std::printf("input generation: %.3f s (%zu traces, %llu records, seed "
                "%llu)\n",
                seconds_between(g0, now_ns()), kTraces,
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(cfg.seed));
  }

  void run() {
    const Schedule schedule(cfg_);
    Tracer tracer;
    std::vector<double> lateness;
    for (std::uint64_t i = 0; schedule.more(i); ++i) {
      const bool traced = schedule.traced(i);
      if (traced) tracer.clear();
      const std::size_t k = schedule.input(i);
      iteration(k, inputs_[k], traced ? &tracer : nullptr, lateness);
      ++r_.iterations;
    }
    r_.open_loop_lateness_us = median(lateness);
    r_.open_loop_lateness_max_us =
        lateness.empty() ? 0.0 : *std::max_element(lateness.begin(),
                                                   lateness.end());
    if (cfg_.trace && !cfg_.trace_path.empty()) {
      tracer.write(cfg_.trace_path, cfg_.workload);
    }
  }

 private:
  void iteration(std::size_t k, const Input& in, Tracer* tracer,
                 std::vector<double>& lateness_us) {
    const std::string dir = cfg_.workdir + "/archive";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Lane* main = tracer != nullptr ? &tracer->lane("main") : nullptr;
    Lane* qlane = tracer != nullptr ? &tracer->lane("query") : nullptr;
    std::optional<ScopedSpan> root;
    root.emplace(main, "iteration");

    // --- set-up.
    const std::int64_t t0 = now_ns();
    std::optional<Stack> st;
    {
      const ScopedSpan s(main, "setup");
      st.emplace(dir, tracer);
      st->supervisor->start();
    }
    const std::int64_t t1 = now_ns();

    // --- ingest: closed-loop pump, open-loop live queries beside it.
    std::atomic<bool> pumping{true};
    std::atomic<Timestamp> horizon{0};
    std::vector<double> live_us;
    std::vector<double> late_us;
    std::uint64_t live_failed = 0;
    serve::StreamDecoder decoder;
    std::uint64_t submitted = 0, refused = 0;
    std::int64_t t2 = 0;
    {
      std::thread prober([&] {
        if (pin_ingest()) pq::pin_current_thread(3);
        std::uint64_t k = 0;
        const std::int64_t start = now_ns();
        while (pumping.load(std::memory_order_acquire)) {
          const std::int64_t due = start + static_cast<std::int64_t>(k) *
                                               kQueryPeriodNs;
          std::int64_t now = now_ns();
          if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            continue;  // re-check that ingest is still running
          }
          late_us.push_back(static_cast<double>(now - due) / 1e3);
          const Timestamp h = horizon.load(std::memory_order_relaxed);
          const Timestamp hi = h > kLiveWindow ? h - kLiveWindow : 0;
          const Timestamp lo = hi > kLiveWindow ? hi - kLiveWindow : 0;
          const auto type = k % 2 == 0 ? control::QueryType::kTimeWindows
                                       : control::QueryType::kQueueMonitor;
          const auto port = static_cast<std::uint32_t>(k / 2 % kPorts);
          control::QueryResponse resp;
          {
            const ScopedSpan s(qlane, "control.query");
            resp = ask(*st->router, type, port,
                       type == control::QueryType::kTimeWindows ? lo : hi, hi,
                       k + 1);
          }
          live_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
          if (!answered(resp)) ++live_failed;
          ++k;
        }
      });
      const StopProber stop{pumping, prober};  // joins on every exit path
      const ScopedPin pin(pin_ingest(), 2);
      const ScopedSpan s(main, "ingest");
      std::vector<wire::TelemetryRecord> scratch;
      for (std::size_t off = 0; off < in.stream.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, in.stream.size() - off);
        scratch.clear();
        {
          const ScopedSpan d(main, "wire.decode");
          decoder.ingest({in.stream.data() + off, n}, scratch);
        }
        const ScopedSpan w(main, "serve.submit_wait");
        for (const auto& rec : scratch) {
          if (st->supervisor->submit(rec) == serve::Submit::kOk) {
            ++submitted;
          } else {
            ++refused;
          }
        }
        if (!scratch.empty()) {
          horizon.store(scratch.back().deq_timestamp(),
                        std::memory_order_relaxed);
        }
      }
      {
        const ScopedSpan d(main, "serve.drain");
        st->supervisor->drain_and_join();
      }
      const ScopedSpan c(main, "store.close");
      st->archive->close();
      t2 = now_ns();
    }
    lateness_us.insert(lateness_us.end(), late_us.begin(), late_us.end());
    r_.attempted += in.records + live_us.size();
    r_.failed += refused + live_failed;

    // --- sampled-victim diagnosis through the router on live state.
    std::vector<double> attrib_ms;
    double precision_sum = 0.0;
    std::uint64_t id = 1u << 30;
    for (const VictimCase& v : in.victims) {
      const std::int64_t a = now_ns();
      control::QueryResponse tw, qm;
      {
        const ScopedSpan s(main, "control.query");
        tw = ask(*st->router, control::QueryType::kTimeWindows, v.port, v.enq,
                 v.deq, ++id);
        qm = ask(*st->router, control::QueryType::kQueueMonitor, v.port,
                 v.enq, v.enq, ++id);
      }
      attrib_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      ++r_.attempted;
      if (tw.status != control::QueryStatus::kOk || !answered(qm)) ++r_.failed;
      precision_sum +=
          ground::flow_count_accuracy(tw.counts, v.truth).precision;
    }

    // --- restart (query-only, like pq_serve after a crash): recovery scan,
    // then the router takes over the recovered history.
    core::ShardedPipeline cold_pipe(serve_pipeline());
    for (std::uint32_t p = 0; p < kPorts; ++p) cold_pipe.enable_port(p);
    control::ShardedAnalysis cold_analysis(cold_pipe, serve_analysis());
    serve::QueryRouter cold_router(cold_pipe, cold_analysis, nullptr);
    const std::int64_t t3 = now_ns();
    std::optional<store::ArchiveReader> reader;
    {
      const ScopedSpan s(main, "store.recovery");
      store::ReaderOptions ro;
      ro.threads = kRecoveryThreads;
      reader.emplace(dir, ro);
      cold_router.load_recovered(*reader, {0, 1});
    }
    const std::int64_t t4 = now_ns();

    // --- as-of queries through the archive reader.
    std::vector<double> arch_ms;
    std::uint64_t archive_queries = 0;
    for (int h = 0; h < kHorizons; ++h) {
      const auto port = static_cast<std::uint32_t>(h % kPorts);
      const Timestamp as_of = kSpan * static_cast<Timestamp>(h + 1) / kHorizons;
      std::size_t n = 0;
      std::int64_t a = now_ns();
      {
        const ScopedSpan s(main, "store.query");
        n = reader
                ->query_time_windows(port, as_of - kSpan / 16, as_of, 0,
                                     as_of)
                .size();
      }
      arch_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      a = now_ns();
      {
        const ScopedSpan s(main, "store.query");
        n += reader->query_queue_monitor(port, as_of - kSpan / 32, 0, as_of)
                 .size();
      }
      arch_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      archive_queries += 2;
      r_.attempted += 2;
      if (n == 0) r_.failed += 2;
    }
    root.reset();

    // --- output checks.
    r_.check(st->supervisor->shed_total() == 0, "records were shed");
    r_.check(st->supervisor->records_absorbed() == submitted &&
                 submitted == in.records,
             "absorbed, submitted and generated record counts differ");
    r_.check(decoder.stats().frames_rejected == 0,
             "the decoder rejected frames of a clean stream");
    r_.check(live_failed == 0 && st->router->stats().rejected_malformed == 0,
             "a live query came back malformed");
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < in.victims.size(); i += 8) {
      const VictimCase& v = in.victims[i];
      const auto live = ask(*st->router, control::QueryType::kTimeWindows,
                            v.port, v.enq, v.deq, ++id);
      const auto rec = ask(cold_router, control::QueryType::kTimeWindows,
                           v.port, v.enq, v.deq, ++id);
      if (live.counts != rec.counts) ++mismatched;
    }
    r_.check(mismatched == 0 && cold_router.stats().served_recovered > 0,
             std::to_string(mismatched) +
                 " recovered answers differ from the live answers");
    const store::WriterStats ws = st->archive->stats();
    r_.check_repeat(k,
                    {{"records", in.records},
                     {"absorbed", st->supervisor->records_absorbed()},
                     {"archive_blocks", ws.blocks_appended},
                     {"polls", st->analysis->polls_performed()}},
                    in.victims.empty()
                        ? 0.0
                        : precision_sum /
                              static_cast<double>(in.victims.size()));

    const double ingest_pps =
        static_cast<double>(in.records) / seconds_between(t1, t2);
    if (tracer == nullptr) {
      r_.add_iteration(seconds_between(t0, t1), ingest_pps,
                       seconds_between(t3, t4), live_us, attrib_ms, arch_ms);
      return;
    }
    r_.traced_ingest_pps.push_back(ingest_pps);

    // --- per-layer breakdown of the traced iteration.
    const auto self_main = tracer->self_times("main");
    const auto self_sh = tracer->self_times("shard");
    const auto self_q = tracer->self_times("query");
    // The supervisor's workers call the PortPipeline directly, so absorb
    // is costed by replaying the same per-port streams on one thread.
    const ReplayCost rc =
        replay_cost(per_port_records(in.stream), serve_pipeline(),
                    serve_analysis(), 256);
    const double append = at(self_sh, "store.append");
    std::map<std::string, double> L;
    L["core.absorb_s"] = rc.absorb_s - rc.poll_s;
    L["core.packets"] = 0.0;
    for (std::uint32_t p = 0; p < kPorts; ++p) {
      L["core.packets"] += static_cast<double>(
          st->pipeline.shard(p).pipeline().packets_seen());
    }
    L["core.dq_fires"] = static_cast<double>(st->pipeline.dq_triggers_fired());
    L["control.poll_s"] = poll_seconds(*st->analysis) - append;
    L["control.polls"] = static_cast<double>(st->analysis->polls_performed());
    L["control.poll_mb"] =
        static_cast<double>(st->analysis->bytes_polled()) / 1e6;
    L["control.query_s"] = at(self_main, "control.query") +
                           at(self_q, "control.query");
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
    L["wire.decode_s"] = at(self_main, "wire.decode");
    L["serve.submit_wait_s"] = at(self_main, "serve.submit_wait");
    L["serve.drain_s"] = at(self_main, "serve.drain");
    L["serve.queue_peak"] =
        static_cast<double>(st->supervisor->queue_peak_depth());
    L["serve.shed"] = static_cast<double>(st->supervisor->shed_total());

    // The pump's own work counts directly. While it waits on backpressure
    // and the final drain it is blocked on the two shard workers, so that
    // phase is split by the workers' busy time (absorb, polls, appends).
    std::map<std::string, double> direct;
    for (const char* k : {"setup", "wire.decode", "store.close",
                          "control.query", "store.recovery", "store.query"}) {
      direct[k] = at(self_main, k);
    }
    double wall = 0.0;
    for (const auto& [name, s] : self_main) wall += s;
    add_shares(L, wall, direct,
               {{"core", L["core.absorb_s"]},
                {"control", at(self_sh, "control.poll")},
                {"store", append}},
               at(self_main, "serve.submit_wait") +
                   at(self_main, "serve.drain"),
               kPorts);
    r_.layers.push_back(std::move(L));
  }

  const RunConfig& cfg_;
  Report& r_;
  std::vector<Input> inputs_;
};

}  // namespace

void run_serve_live(const RunConfig& cfg, Report& r) {
  Workload(cfg, r).run();
}

}  // namespace perfbench
