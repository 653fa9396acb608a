#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string_view>

#include "fault/injector.hpp"
#include "fleet/app.hpp"
#include "fleet/cluster.hpp"
#include "fleet/obs_merge.hpp"
#include "harness/testbed.hpp"
#include "ipc/channel.hpp"
#include "net/packet_pool.hpp"
#include "socklib/socklib.hpp"
#include "wl/openloop.hpp"

namespace perfbench {

using namespace neat;

namespace {

constexpr sim::SimTime kMs = sim::kMillisecond;
/// Length of one timed run_for slice; every span carries the frame and
/// event deltas of its slice, so warm-up, the crash window and steady
/// state are visible on the trace timeline.
constexpr sim::SimTime kSlice = 10 * kMs;
/// Length of the post-window recovery probe: long enough for the restart
/// (~45 ms) and for clients to see the connections the crash cost them
/// (their retransmissions draw RSTs from the restarted replica).
constexpr sim::SimTime kProbeTail = 120 * kMs;

/// Seed-derived offset (< 5 ms, one supervisor heartbeat period) of every
/// injected crash, so recovery times spread smoothly over the heartbeat
/// phase instead of landing on the same phase for every seed.
sim::SimTime crash_jitter(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<sim::SimTime>(z % 5000) * sim::kMicrosecond;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Current resident set of this process, in bytes (Linux /proc).
std::uint64_t current_rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  f >> pages >> resident;
  return resident * 4096;
}

/// The timing/tracing shell around one workload run.
class Run {
 public:
  Run(const Options& opt, const Probe& probe) : opt_(opt), probe_(probe) {}

  /// Time one set-up call (harness.build_s.<name>, a setup span).
  template <typename F>
  void build(const char* name, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    const double dt = seconds_between(t0, t1);
    out.build_s.emplace_back(name, dt);
    out.setup_s += dt;
    if (probe_.spans != nullptr) {
      probe_.spans->add(std::string("setup/") + name, t0, t1);
    }
  }

  /// Advance `sim` by `duration` in fixed slices. When `timed`, the slices
  /// count towards the host-cost metrics (run_s, frames, events).
  void advance(sim::Simulator& sim, sim::SimTime duration, const char* phase,
               const std::function<std::uint64_t()>& frames, bool timed) {
    const sim::SimTime end = sim.now() + duration;
    while (sim.now() < end) {
      const sim::SimTime step = std::min(kSlice, end - sim.now());
      const std::uint64_t f0 = frames();
      const std::uint64_t e0 = sim.queue().executed();
      const double pre_chunk = timed ? calib_chunk_seconds() : 0.0;
      const auto t0 = Clock::now();
      sim.run_for(step);
      const auto t1 = Clock::now();
      const std::uint64_t df = frames() - f0;
      const std::uint64_t de = sim.queue().executed() - e0;
      if (timed) {
        const double wall = seconds_between(t0, t1);
        const double chunk = (pre_chunk + calib_chunk_seconds()) / 2;
        out.run_s += wall;
        out.run_ref_s += wall * kRefChunkSeconds / chunk;
        chunk_sum_ += chunk;
        ++chunks_;
        out.slowdown = chunk_sum_ / chunks_ / kRefChunkSeconds;
        out.frames += df;
        out.events += de;
      }
      if (probe_.spans != nullptr) {
        char args[160];
        std::snprintf(args, sizeof args,
                      "\"sim_ms\":%.3f,\"frames\":%llu,\"events\":%llu",
                      ms(sim.now()), static_cast<unsigned long long>(df),
                      static_cast<unsigned long long>(de));
        probe_.spans->add(std::string("run/") + phase, t0, t1, args);
      }
    }
  }

  /// Time the teardown of everything `f` destroys.
  template <typename F>
  void teardown(F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    out.teardown_s = seconds_between(t0, t1);
    if (probe_.spans != nullptr) probe_.spans->add("teardown", t0, t1);
  }

  [[nodiscard]] const Options& opt() const { return opt_; }
  [[nodiscard]] const Probe& probe() const { return probe_; }

  Outcome out;

 private:
  const Options& opt_;
  const Probe& probe_;
  double chunk_sum_{0.0};
  int chunks_{0};
};

// ---------------------------------------------------------------------------
// Stats readers (public stats of each layer, read after the measure window)
// ---------------------------------------------------------------------------

/// Sweep ipc::channel_registry(): the channel law per channel, plus the
/// batch/drop totals. Mid-run a message can be delivered (its consumer job
/// queued) while still counted in flight until that job runs, so the law
/// holds as: every sent message is delivered, dropped for a named reason,
/// or still in transfer, and those in transfer are among the in-flight ones.
void sweep_channels(Outcome& o) {
  std::uint64_t delivered = 0;
  std::uint64_t batches = 0;
  std::uint64_t dropped = 0;
  for (const ipc::ChannelBase* ch : ipc::channel_registry()) {
    const ipc::ChannelStats& s = ch->channel_stats();
    ++o.checks.channels;
    const std::uint64_t accounted =
        s.delivered + s.dropped_full + s.dropped_dead;
    if (s.sent < accounted || s.sent > accounted + ch->channel_in_flight()) {
      ++o.checks.channel_violations;
    }
    delivered += s.delivered;
    batches += s.batches;
    dropped += s.dropped_full + s.dropped_dead;
  }
  o.layer["ipc.msgs_per_batch"] = ratio(static_cast<double>(delivered),
                                        static_cast<double>(batches));
  o.layer["ipc.dropped"] = static_cast<double>(dropped);
}

double hist_mean(const obs::Registry& r, std::string_view name) {
  const obs::Histogram* h = r.find_histogram(name);
  return h != nullptr ? h->mean() : 0.0;
}

double hist_quantile_us(const obs::Registry& r, std::string_view name,
                        double q) {
  const obs::Histogram* h = r.find_histogram(name);
  return h != nullptr ? static_cast<double>(h->quantile(q)) / 1e3 : 0.0;
}

/// Host-work operation counts for the attribution (whole simulation: the
/// host simulates clients as well as servers), per server frame.
struct OpCounts {
  std::uint64_t rss_hashes{0};
  std::uint64_t segments{0};
  std::uint64_t stream_bytes{0};
};

void add_host_ops(OpCounts& ops, NeatHost& h) {
  ops.rss_hashes += h.nic().stats().rx_steered_rss;
  for (std::size_t i = 0; i < h.replica_count(); ++i) {
    const net::TcpStats& t = h.replica(i).tcp().stats();
    ops.segments += t.segments_in + t.segments_out;
    ops.stream_bytes += t.bytes_in + t.bytes_out;
  }
}

void record_ops(Outcome& o, const OpCounts& ops, double frames) {
  o.layer["nic.rss_hashes_per_pkt"] =
      ratio(static_cast<double>(ops.rss_hashes), frames);
  o.layer["tcp.segs_per_pkt"] =
      ratio(static_cast<double>(ops.segments), frames);
  o.layer["ipc.stream_kb_per_pkt"] =
      ratio(static_cast<double>(ops.stream_bytes) / 1024.0, frames);
}

/// Server-side layer counts over the run so far (warm-up + measure).
/// `servers` are the hosts under test, `web_procs` their application
/// processes, `requests` what those applications served.
void record_server_layers(Outcome& o, sim::Simulator& sim,
                          const std::vector<NeatHost*>& servers,
                          const std::vector<const sim::Process*>& web_procs,
                          std::uint64_t requests, std::uint64_t frames) {
  const double f = static_cast<double>(frames);
  const double req = static_cast<double>(requests);
  std::uint64_t filter_hits = 0, rss = 0, installed = 0;
  std::uint64_t seg_in = 0, seg_out = 0, pure_acks = 0, retx = 0;
  std::uint64_t accepted = 0;
  double tcp_cycles = 0, ip_cycles = 0, sys_cycles = 0;
  double drv_proc = 0, drv_poll = 0, drv_kern = 0, budget = 0;
  std::vector<double> per_replica_segs;
  for (NeatHost* h : servers) {
    const nic::NicStats& n = h->nic().stats();
    filter_hits += n.rx_steered_filter;
    rss += n.rx_steered_rss;
    installed += n.filters_installed;
    for (std::size_t i = 0; i < h->replica_count(); ++i) {
      StackReplica& r = h->replica(i);
      const net::TcpStats& t = r.tcp().stats();
      seg_in += t.segments_in;
      seg_out += t.segments_out;
      pure_acks += t.pure_acks_out;
      retx += t.retransmits;
      accepted += t.conns_accepted;
      per_replica_segs.push_back(
          static_cast<double>(t.segments_in + t.segments_out));
      const sim::Process* tcp = r.component(Component::kTcp);
      const sim::Process* ip = r.component(Component::kIp);
      tcp_cycles += static_cast<double>(tcp->stats().processing);
      // Single-component replicas run IP inside the TCP process; their
      // cycles are all counted under tcp.
      if (ip != tcp) ip_cycles += static_cast<double>(ip->stats().processing);
    }
    const sim::ProcStats& d = h->driver().stats();
    drv_proc += static_cast<double>(d.processing);
    drv_poll += static_cast<double>(d.polling);
    drv_kern += static_cast<double>(d.kernel);
    const sim::MachineParams& mp = h->machine().params();
    budget += mp.freq.ghz * 1e9 * sim::to_seconds(sim.now()) / mp.work_scale;
    sys_cycles += static_cast<double>(h->syscall().stats().total_active());
  }
  double web_cycles = 0, web_wakeups = 0;
  for (const sim::Process* p : web_procs) {
    web_cycles += static_cast<double>(p->stats().processing);
    web_wakeups += static_cast<double>(p->stats().wakeups);
  }
  const double drv_active = drv_proc + drv_poll + drv_kern;
  const obs::Registry& reg = sim.metrics();

  o.layer["sim.events_per_pkt"] =
      ratio(static_cast<double>(sim.queue().executed()), f);
  o.layer["sim.fused_frac"] =
      ratio(static_cast<double>(sim.queue().fused()),
            static_cast<double>(sim.queue().executed()));
  o.layer["nic.filter_hit_frac"] = ratio(static_cast<double>(filter_hits),
                                         static_cast<double>(filter_hits + rss));
  o.layer["nic.filters_installed_per_conn"] =
      ratio(static_cast<double>(installed), static_cast<double>(accepted));
  o.layer["nic.rx_batch_mean"] = hist_mean(reg, "nic.rx_batch_size");
  o.layer["drv.busy_frac"] = ratio(drv_active, budget);
  o.layer["drv.poll_frac"] = ratio(drv_poll, drv_active);
  o.layer["drv.kernel_frac"] = ratio(drv_kern, drv_active);
  o.layer["ipc.queue_delay_p99_us"] =
      hist_quantile_us(reg, "ipc.queue_delay_ns", 0.99);
  o.layer["tcp.segs_per_req"] =
      ratio(static_cast<double>(seg_in + seg_out), req);
  o.layer["tcp.pure_ack_frac"] =
      ratio(static_cast<double>(pure_acks), static_cast<double>(seg_out));
  o.layer["tcp.retransmits_per_kseg"] =
      ratio(1000.0 * static_cast<double>(retx), static_cast<double>(seg_out));
  o.layer["tcp.cycles_per_pkt"] = ratio(tcp_cycles, f);
  o.layer["ip.cycles_per_pkt"] = ratio(ip_cycles, f);
  o.layer["socklib.wakeups_per_req"] = ratio(web_wakeups, req);
  o.layer["syscall.cycles_per_conn"] =
      ratio(sys_cycles, static_cast<double>(accepted));
  o.layer["apps.web_cycles_per_req"] = ratio(web_cycles, req);
  double max_segs = 0, sum_segs = 0;
  for (const double s : per_replica_segs) {
    max_segs = std::max(max_segs, s);
    sum_segs += s;
  }
  o.layer["neat.replica_skew"] =
      ratio(max_segs * static_cast<double>(per_replica_segs.size()), sum_segs);
}

/// Recovery-log view of the injected crash (the first replica's, when
/// several crash together).
void record_crash(Outcome& o, const NeatHost& host) {
  if (host.recovery_log().empty()) return;
  const RecoveryEvent& ev = host.recovery_log().front();
  o.checks.crashes = 1;
  o.checks.recovered = ev.first_service_at > 0 ? 1 : 0;
  o.layer["neat.detect_ms"] = ms(ev.detection_latency());
  o.layer["neat.restart_ms"] = ms(ev.recovery_latency());
  o.layer["neat.conns_lost"] = static_cast<double>(ev.connections_lost);
  o.sim["sim_recovery_ms"] = ms(ev.first_service_latency());
}

/// Quantile q of `h` in ms, interpolated linearly inside the bucket that
/// holds the q-th ranked sample. Histogram::quantile() reports the bucket's
/// upper edge, which is the same number for every seed whose quantile lands
/// in that bucket; interpolation keeps the metric continuous (the bucket
/// width still bounds its error by 1/16).
double interpolated_ms(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count() - 1);
  double seen = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    const auto n = static_cast<double>(h.bucket_count(i));
    if (n > 0 && seen + n > rank) {
      const double lo = static_cast<double>(obs::Histogram::bucket_lower(i));
      const double hi =
          static_cast<double>(obs::Histogram::bucket_upper(i)) + 1.0;
      const double v = lo + (hi - lo) * (rank - seen + 0.5) / n;
      return std::min(v, static_cast<double>(h.max())) / 1e6;
    }
    seen += n;
  }
  return ms(h.max());
}

void record_latency(Outcome& o, const obs::Histogram& h) {
  o.sim["sim_p50_ms"] = interpolated_ms(h, 0.50);
  o.sim["sim_p99_ms"] = interpolated_ms(h, 0.99);
  // The histogram's own bucket-edge p99 (what the repo's benches print).
  o.layer["wl.p99_bucket_ms"] = ms(h.quantile(0.99));
  o.latency_samples = h.count();
}

void record_nic_filters(Outcome& o, const nic::Nic& nic) {
  const nic::NicStats& n = nic.stats();
  o.checks.filters_installed += n.filters_installed;
  o.checks.filters_retired += n.filters_retired;
  o.checks.filters_evicted += n.filters_evicted;
  o.checks.filters_live += nic.flow_filter_count();
}

/// PacketPool conservation needs the pool's counters after the pool's
/// owner (and every packet it lent out) is gone. The pool installed for
/// the current simulation is reachable through its thread-local install
/// slot; holding a reference keeps its counters readable past teardown.
std::shared_ptr<net::detail::PoolCore> current_pool_core() {
  const auto* slot = net::detail::current_pool();
  return slot != nullptr ? *slot : nullptr;
}

/// Fresh buffer allocations per server frame since the run started.
void record_pool_mallocs(Outcome& o, std::uint64_t frames) {
  const auto core = current_pool_core();
  o.layer["net.pool_mallocs_per_pkt"] =
      core != nullptr ? ratio(static_cast<double>(core->stats.fresh),
                              static_cast<double>(frames))
                      : 0.0;
}

void record_pool(Outcome& o, const std::shared_ptr<net::detail::PoolCore>& c) {
  if (c == nullptr) return;
  o.checks.pool_out = c->stats.fresh + c->stats.reused;
  o.checks.pool_back = c->stats.recycled + c->stats.dropped_full;
}

// ---------------------------------------------------------------------------
// Wire capture for the attribution micro-timings (traced runs only)
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxTuples = 4096;
constexpr std::size_t kMaxRequests = 512;
constexpr std::size_t kMaxSizes = 8192;

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

/// Record one Ethernet/IPv4/TCP frame seen on the wire.
void capture_frame(Capture& cap, const net::Packet& frame) {
  const auto b = frame.bytes();
  if (b.size() < 14 + 20 + 20 || be16(b.data() + 12) != 0x0800) return;
  const std::uint8_t* ip = b.data() + 14;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ip[9] != 6 || ihl < 20 || b.size() < 14 + ihl + 20) return;
  const std::size_t ip_len = std::min<std::size_t>(be16(ip + 2), b.size() - 14);
  const std::uint8_t* tcp = ip + ihl;
  const std::size_t doff = static_cast<std::size_t>(tcp[12] >> 4) * 4;
  if (ip_len < ihl + doff) return;
  const std::size_t payload = ip_len - ihl - doff;
  if (cap.tuples.size() < kMaxTuples) {
    cap.tuples.push_back({net::Ipv4Addr{be32(ip + 12)},
                          net::Ipv4Addr{be32(ip + 16)}, be16(tcp),
                          be16(tcp + 2)});
  }
  if (payload > 0 && cap.segment_sizes.size() < kMaxSizes) {
    cap.segment_sizes.push_back(payload);
  }
  const char* data = reinterpret_cast<const char*>(tcp + doff);
  if (payload >= 4 && cap.http_requests.size() < kMaxRequests &&
      std::memcmp(data, "GET ", 4) == 0) {
    cap.http_requests.emplace_back(data, payload);
  }
}

// ---------------------------------------------------------------------------
// The two-machine testbed workloads (keepalive_small, churn_crash,
// bulk_stream) share one server: Xeon E5520, multi-component, 2 replicas on
// HT, 8 webs, 32 us RX coalescing. Only the traffic differs.
// ---------------------------------------------------------------------------

constexpr int kWebs = 8;

harness::Testbed::Config xeon_testbed(std::uint64_t seed) {
  harness::Testbed::Config cfg;
  cfg.seed = seed;
  cfg.server_machine = sim::intel_xeon_e5520();
  cfg.server_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  cfg.client_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
  return cfg;
}

harness::NeatServerOptions xeon_server(
    std::vector<std::pair<std::string, std::size_t>> files) {
  harness::NeatServerOptions so;
  so.multi_component = true;
  so.replicas = 2;
  so.webs = kWebs;
  so.files = std::move(files);
  so.placement = harness::xeon_placement(true, 2, kWebs, /*ht=*/true);
  return so;
}

/// Everything one testbed workload builds, in teardown order: rigs and
/// clients must die before the testbed.
struct TestbedRig {
  std::optional<harness::Testbed> tb;
  std::optional<harness::ServerRig> server;
  std::optional<harness::ClientRig> client;
  std::vector<std::unique_ptr<wl::OpenLoopClient>> open_loop;
  std::vector<std::unique_ptr<apps::LoadGen>> bulk_gens;

  [[nodiscard]] std::uint64_t server_frames() const {
    const nic::NicStats& s = tb->server_nic.stats();
    return s.rx_frames + s.tx_frames;
  }

  void destroy() {
    open_loop.clear();
    bulk_gens.clear();
    client.reset();
    server.reset();
    tb.reset();
  }
};

/// Shared per-run bookkeeping of the testbed workloads: server-side counts
/// since the start of the run.
void testbed_layers(Run& run, TestbedRig& rig) {
  Outcome& o = run.out;
  const std::uint64_t requests = rig.server->total_requests();
  std::vector<const sim::Process*> webs;
  for (const auto& w : rig.server->webs) webs.push_back(w.get());
  record_server_layers(o, rig.tb->sim, {rig.server->neat.get()}, webs,
                       requests, rig.server_frames());
  sweep_channels(o);
  OpCounts ops;
  add_host_ops(ops, *rig.server->neat);
  add_host_ops(ops, *rig.client->host);
  record_ops(o, ops, static_cast<double>(rig.server_frames()));
  o.layer["apps.reqs_per_pkt"] =
      ratio(static_cast<double>(requests),
            static_cast<double>(rig.server_frames()));
  record_pool_mallocs(o, rig.server_frames());
}

void install_capture(Run& run, TestbedRig& rig) {
  Capture* cap = run.probe().capture;
  if (cap == nullptr) return;
  rig.tb->link.set_tap([cap](const nic::Nic&, const net::Packet& frame) {
    capture_frame(*cap, frame);
  });
}

/// After the measure window: crash the TCP component of every replica and
/// advance through the restart and until clients have seen the connections
/// it cost them. Every workload carries an injected crash, so recovery and
/// failure are measured on every traffic shape; the measure window itself
/// stays crash-free here. All replicas crash because how many of a few
/// hundred connections RSS puts on any one replica varies too much from
/// seed to seed for a steady failure count.
void recovery_probe(Run& run, TestbedRig& rig) {
  const auto frames = [&rig] { return rig.server_frames(); };
  const sim::SimTime jitter = crash_jitter(run.opt().seed);
  run.advance(rig.tb->sim, jitter, "probe", frames, false);
  fault::FaultInjector inj(*rig.server->neat, run.opt().seed);
  for (std::size_t r = 0; r < rig.server->neat->replica_count(); ++r) {
    (void)inj.inject(r, Component::kTcp);
  }
  run.advance(rig.tb->sim, kProbeTail - jitter, "probe", frames, false);
}

void finish_testbed(Run& run, TestbedRig& rig, std::ostream* flow_trace) {
  record_nic_filters(run.out, rig.tb->server_nic);
  if (flow_trace != nullptr) rig.tb->sim.tracer().write_chrome_json(*flow_trace);
  const auto core = current_pool_core();
  run.teardown([&rig] { rig.destroy(); });
  record_pool(run.out, core);
}

void build_testbed(Run& run, TestbedRig& rig, harness::NeatServerOptions so,
                   harness::ClientOptions co) {
  run.build("testbed", [&] { rig.tb.emplace(xeon_testbed(run.opt().seed)); });
  run.build("server", [&] {
    rig.server.emplace(harness::build_neat_server(*rig.tb, std::move(so)));
  });
  run.build("client", [&] {
    rig.client.emplace(harness::build_client(*rig.tb, std::move(co), kWebs));
  });
}

/// Closed-loop LoadGens fold into one latency distribution and one set of
/// connection outcomes.
struct ClosedLoopTotals {
  obs::Histogram latency;
  std::uint64_t requests{0};
  std::uint64_t bytes{0};
  std::uint64_t clean{0};
  std::uint64_t errors{0};
  std::uint64_t bad_status{0};
  std::uint64_t mismatches{0};
  std::uint64_t in_flight{0};
};

ClosedLoopTotals closed_loop_totals(
    const std::vector<const apps::LoadGen*>& gens) {
  ClosedLoopTotals t;
  for (const apps::LoadGen* g : gens) {
    const auto& r = g->report();
    t.latency.merge(r.latency);
    t.requests += r.committed_requests;
    t.bytes += r.committed_bytes;
    t.clean += r.clean_conns;
    t.errors += r.error_conns;
    t.bad_status += r.bad_status;
    t.mismatches += r.payload_mismatches;
    t.in_flight += g->in_flight_conns();
  }
  return t;
}

/// Closed-loop window results plus the request failure share over the
/// window and the recovery probe after it.
void closed_loop_outcome(Run& run, TestbedRig& rig,
                         const std::vector<const apps::LoadGen*>& gens,
                         sim::SimTime measure) {
  Outcome& o = run.out;
  const ClosedLoopTotals w = closed_loop_totals(gens);
  const double secs = sim::to_seconds(measure);
  o.sim["sim_krps"] = static_cast<double>(w.requests) / secs / 1e3;
  o.sim["sim_goodput_gbps"] = static_cast<double>(w.bytes) * 8.0 / secs / 1e9;
  record_latency(o, w.latency);
  o.checks.completed = w.requests;
  o.checks.bad_status = w.bad_status;
  o.checks.payload_mismatches = w.mismatches;
  testbed_layers(run, rig);

  for (const auto& g : rig.client->gens) g->mark();
  for (const auto& g : rig.bulk_gens) g->mark();
  recovery_probe(run, rig);
  record_crash(o, *rig.server->neat);
  // Requests are the unit. Failed: one outstanding request per connection
  // that broke inside the window or that the crash lost (the server's
  // count: a bulk receiver whose sender vanished hangs rather than errors,
  // so client-side errors undercount it). Attempted: requests completed in
  // the window plus the failed ones.
  const ClosedLoopTotals t = closed_loop_totals(gens);
  std::uint64_t lost = 0;
  for (const RecoveryEvent& ev : rig.server->neat->recovery_log()) {
    lost += ev.connections_lost;
  }
  o.failed = w.errors + lost;
  o.attempted = w.requests + o.failed;
  o.sim["sim_fail_frac"] = ratio(static_cast<double>(o.failed),
                                 static_cast<double>(o.attempted));
  o.checks.bad_status += t.bad_status;
  o.checks.payload_mismatches += t.mismatches;
}

// --- keepalive_small ------------------------------------------------------

Outcome run_keepalive_small(const Options& opt, const Probe& probe,
                            std::ostream* flow_trace) {
  Run run(opt, probe);
  // The paper's fig9 headline: Multi 2x HT, 8 webs, 12 httperf generators x
  // 24 keep-alive connections x 100 requests of a 20 B file.
  const sim::SimTime warmup = (opt.tiny ? 20 : 200) * kMs;
  const sim::SimTime measure = (opt.tiny ? 30 : 300) * kMs;
  TestbedRig rig;
  harness::ClientOptions co;
  co.generators = 12;
  co.concurrency_per_gen = 24;
  co.requests_per_conn = 100;
  co.path = "/file20";
  build_testbed(run, rig, xeon_server({{"/file20", 20}}), co);
  run.build("arp", [&] { harness::prepopulate_arp(*rig.server, *rig.client); });
  if (!probe.setup_only) {
    install_capture(run, rig);
    const auto frames = [&rig] { return rig.server_frames(); };
    run.advance(rig.tb->sim, warmup, "warmup", frames, true);
    rig.client->mark();
    run.advance(rig.tb->sim, measure, "measure", frames, true);
    std::vector<const apps::LoadGen*> gens;
    for (const auto& g : rig.client->gens) gens.push_back(g.get());
    closed_loop_outcome(run, rig, gens, measure);
  }
  finish_testbed(run, rig, flow_trace);
  return std::move(run.out);
}

// --- bulk_stream ----------------------------------------------------------

Outcome run_bulk_stream(const Options& opt, const Probe& probe,
                        std::ostream* flow_trace) {
  Run run(opt, probe);
  // 128 keep-alive connections fetching 256 KB - 1 MB files: the 10G link
  // saturates and per-byte work (copies, checksums, rings) dominates.
  const sim::SimTime warmup = (opt.tiny ? 10 : 50) * kMs;
  const sim::SimTime measure = (opt.tiny ? 40 : 600) * kMs;
  const std::vector<std::pair<std::string, std::size_t>> files = {
      {"/bulk256k", 256 * 1024},
      {"/bulk512k", 512 * 1024},
      {"/bulk768k", 768 * 1024},
      {"/bulk1m", 1024 * 1024}};
  constexpr int kGens = 16;
  constexpr std::size_t kConnsPerGen = 8;
  TestbedRig rig;
  harness::ClientOptions co;
  co.generators = 0;
  build_testbed(run, rig, xeon_server(files), co);
  run.build("bulk_clients", [&] {
    auto& cm = rig.tb->client_machine;
    for (int g = 0; g < kGens; ++g) {
      const auto& [path, size] = files[static_cast<std::size_t>(g) % files.size()];
      apps::LoadGen::Config lc;
      lc.server = net::SockAddr{harness::kServerIp,
                                static_cast<std::uint16_t>(harness::kBasePort +
                                                           g % kWebs)};
      lc.path = path;
      lc.concurrency = kConnsPerGen;
      lc.requests_per_conn = 100;
      lc.expect_body = rig.server->files->lookup(path);
      auto gen = std::make_unique<apps::LoadGen>(
          rig.tb->sim, "bulk" + std::to_string(g), lc);
      gen->pin(cm.thread(3 + co.stack_replicas + g));
      gen->attach_api(
          std::make_unique<socklib::SockLib>(*gen, *rig.client->host));
      gen->start();
      rig.bulk_gens.push_back(std::move(gen));
    }
  });
  run.build("arp", [&] { harness::prepopulate_arp(*rig.server, *rig.client); });
  if (!probe.setup_only) {
    install_capture(run, rig);
    const auto frames = [&rig] { return rig.server_frames(); };
    run.advance(rig.tb->sim, warmup, "warmup", frames, true);
    for (auto& g : rig.bulk_gens) g->mark();
    run.advance(rig.tb->sim, measure, "measure", frames, true);
    std::vector<const apps::LoadGen*> gens;
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
    for (std::size_t g = 0; g < rig.bulk_gens.size(); ++g) {
      const auto& r = rig.bulk_gens[g]->report();
      expected += files[g % files.size()].second * r.committed_requests;
      delivered += r.committed_bytes;
      gens.push_back(rig.bulk_gens[g].get());
    }
    run.out.checks.bytes_expected = expected;
    run.out.checks.bytes_delivered = delivered;
    closed_loop_outcome(run, rig, gens, measure);
  }
  finish_testbed(run, rig, flow_trace);
  return std::move(run.out);
}

// --- churn_crash ----------------------------------------------------------

Outcome run_churn_crash(const Options& opt, const Probe& probe,
                        std::ostream* flow_trace) {
  Run run(opt, probe);
  // Open-loop Poisson arrivals of one-request sessions, below saturation,
  // with NIC tracking filters; one TCP component crashes mid-window.
  // The window is long against the ~35 ms outage so that the sessions the
  // crash strands (about rate x outage / 2) stay under 1% of the window and
  // p99 still describes healthy service.
  const sim::SimTime warmup = (opt.tiny ? 20 : 100) * kMs;
  const sim::SimTime measure = (opt.tiny ? 80 : 2500) * kMs;
  const sim::SimTime crash_at = (opt.tiny ? 20 : 1000) * kMs;  // into measure
  const double rate = opt.tiny ? 8000.0 : 15000.0;  // sessions/s, all ports
  TestbedRig rig;
  harness::NeatServerOptions so = xeon_server({{"/file20", 20}});
  so.tracking_filters = true;
  harness::ClientOptions co;
  co.generators = 0;
  build_testbed(run, rig, so, co);
  run.build("open_loop_clients", [&] {
    // Short FIN-retire linger so filter retirement happens inside the run.
    rig.tb->server_nic.set_fin_retire_linger(20 * kMs);
    auto& cm = rig.tb->client_machine;
    for (int i = 0; i < kWebs; ++i) {
      wl::OpenLoopClient::Config oc;
      oc.tenant = "churn" + std::to_string(i);
      oc.server = net::SockAddr{
          harness::kServerIp,
          static_cast<std::uint16_t>(harness::kBasePort + i)};
      oc.arrival = wl::ArrivalModel::poisson(rate / kWebs);
      oc.session.requests_per_session = 1;
      // Users give up after 50 ms (healthy p99 is under 1 ms): sessions
      // stranded by the crash count as abandoned, not as late successes.
      oc.session.abandon_after = 50 * kMs;
      oc.catalog = {"/file20"};
      auto cl = std::make_unique<wl::OpenLoopClient>(
          rig.tb->sim, "wl-" + oc.tenant, oc);
      cl->pin(cm.thread(3 + co.stack_replicas + i));
      cl->attach_api(
          std::make_unique<socklib::SockLib>(*cl, *rig.client->host));
      rig.open_loop.push_back(std::move(cl));
    }
  });
  run.build("arp", [&] { harness::prepopulate_arp(*rig.server, *rig.client); });
  if (!probe.setup_only) {
    install_capture(run, rig);
    const auto frames = [&rig] { return rig.server_frames(); };
    for (auto& c : rig.open_loop) c->start();
    run.advance(rig.tb->sim, warmup, "warmup", frames, true);
    for (auto& c : rig.open_loop) c->mark();
    run.advance(rig.tb->sim, crash_at + crash_jitter(opt.seed), "measure",
                frames, true);
    fault::FaultInjector inj(*rig.server->neat, opt.seed);
    (void)inj.inject(0, Component::kTcp);
    run.advance(rig.tb->sim, measure - crash_at - crash_jitter(opt.seed),
                "measure_after_crash", frames, true);

    Outcome& o = run.out;
    obs::Histogram lat;
    std::uint64_t started = 0, completed = 0, failed = 0, abandoned = 0;
    std::uint64_t shed = 0, requests = 0, bytes = 0, bad = 0;
    double client_active = 0;
    for (const auto& c : rig.open_loop) {
      const auto& r = c->report();
      lat.merge(r.latency);
      started += r.sessions_started;
      completed += r.sessions_completed;
      failed += r.sessions_failed;
      abandoned += r.sessions_abandoned;
      shed += r.sessions_shed;
      requests += r.requests_completed;
      bytes += r.bytes_received;
      bad += r.bad_status;
      client_active += static_cast<double>(c->stats().total_active());
    }
    const double secs = sim::to_seconds(measure);
    o.sim["sim_krps"] = static_cast<double>(requests) / secs / 1e3;
    o.sim["sim_goodput_gbps"] = static_cast<double>(bytes) * 8.0 / secs / 1e9;
    record_latency(o, lat);
    o.attempted = started + shed;
    o.failed = failed + abandoned + shed;
    o.sim["sim_fail_frac"] = ratio(static_cast<double>(o.failed),
                                   static_cast<double>(o.attempted));
    o.checks.completed = requests;
    o.checks.bad_status = bad;
    testbed_layers(run, rig);
    record_crash(o, *rig.server->neat);
    const sim::MachineParams& cm = rig.tb->client_machine.params();
    o.layer["wl.client_busy_frac"] =
        ratio(client_active,
              cm.freq.ghz * 1e9 * sim::to_seconds(rig.tb->sim.now()) /
                  cm.work_scale * static_cast<double>(rig.open_loop.size()));
    o.layer["wl.sessions_shed"] = static_cast<double>(shed);
  }
  finish_testbed(run, rig, flow_trace);
  return std::move(run.out);
}

// ---------------------------------------------------------------------------
// fleet_failover: FleetCluster, 4 backends x 2 replicas behind the maglev
// steering tier, tens of thousands of connections, one backend powered off
// mid-window.
// ---------------------------------------------------------------------------

struct FleetRig {
  std::optional<fleet::FleetCluster> cluster;
  std::vector<std::unique_ptr<fleet::PingServer>> servers;
  std::vector<std::unique_ptr<fleet::FleetClient>> clients;

  [[nodiscard]] std::uint64_t backend_frames() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster->backend_count(); ++i) {
      const nic::NicStats& s = cluster->backend(i).nic->stats();
      n += s.rx_frames + s.tx_frames;
    }
    return n;
  }

  /// Responses per backend host id, summed over the clients' windows.
  [[nodiscard]] std::map<int, std::uint64_t> window_responses() const {
    std::map<int, std::uint64_t> m;
    for (const auto& c : clients) {
      for (const auto& [id, n] : c->window_responses()) m[id] += n;
    }
    return m;
  }

  void destroy() {
    clients.clear();
    servers.clear();
    cluster.reset();
  }
};

Outcome run_fleet_failover(const Options& opt, const Probe& probe,
                           std::ostream* flow_trace) {
  Run run(opt, probe);
  const sim::SimTime warmup = (opt.tiny ? 60 : 250) * kMs;
  const sim::SimTime measure = (opt.tiny ? 240 : 400) * kMs;
  const sim::SimTime crash_at = (opt.tiny ? 30 : 100) * kMs;  // into measure
  const std::uint64_t conns = opt.tiny ? 2000 : 40000;
  const int ports = 8;
  constexpr std::size_t kVictim = 0;
  const std::uint64_t rss_before = current_rss_bytes();

  FleetRig rig;
  run.build("fleet_cluster", [&] {
    fleet::FleetConfig fc;
    fc.seed = opt.seed;
    fc.backends = 4;
    fc.clients = 2;
    fc.replicas_per_backend = 2;
    fc.replicas_per_client = 2;
    // 16-byte pings: default 96 KiB rings would cost memory per connection
    // for nothing.
    fc.backend_tcp.send_buf = fc.backend_tcp.recv_buf = 4096;
    fc.client_tcp.send_buf = fc.client_tcp.recv_buf = 4096;
    rig.cluster.emplace(fc);
  });
  fleet::FleetCluster& fl = *rig.cluster;
  std::vector<std::uint16_t> port_list;
  for (int p = 0; p < ports; ++p) {
    port_list.push_back(static_cast<std::uint16_t>(harness::kBasePort + p));
  }
  run.build("fleet_apps", [&] {
    for (std::size_t i = 0; i < fl.backend_count(); ++i) {
      fleet::FleetHost& b = fl.backend(i);
      auto s = std::make_unique<fleet::PingServer>(
          fl.sim, "ping" + std::to_string(b.id), *b.host, b.id);
      s->pin(b.app_thread());
      s->start(port_list);
      rig.servers.push_back(std::move(s));
    }
    for (std::size_t j = 0; j < fl.client_count(); ++j) {
      fleet::FleetClient::Config cc;
      cc.vip = fl.config().steering.vip;
      cc.ports = port_list;
      cc.total_conns = conns / fl.client_count();
      cc.ramp_batch = 512;
      cc.ramp_interval = 1 * kMs;
      cc.sample_every = 16;
      cc.ping_interval = 10 * kMs;
      fleet::FleetHost& c = fl.client(j);
      auto cl = std::make_unique<fleet::FleetClient>(
          fl.sim, "cli" + std::to_string(j), *c.host, cc);
      cl->pin(c.app_thread());
      rig.clients.push_back(std::move(cl));
    }
  });

  if (!probe.setup_only) {
    Outcome& o = run.out;
    if (Capture* cap = probe.capture; cap != nullptr) {
      for (std::size_t j = 0; j < fl.client_count(); ++j) {
        fl.client(j).link->set_tap(
            [cap](const nic::Nic&, const net::Packet& frame) {
              capture_frame(*cap, frame);
            });
      }
    }
    sim::SimTime crash_time = 0;
    sim::SimTime down_time = 0;
    fl.start_health_probing([&](int) { down_time = fl.sim.now(); });
    for (auto& c : rig.clients) c->start();
    std::size_t conntrack_peak = 0;
    const auto frames = [&rig, &conntrack_peak] {
      conntrack_peak = std::max(conntrack_peak,
                                rig.cluster->steering().tracked_flow_count());
      return rig.backend_frames();
    };
    run.advance(fl.sim, warmup, "warmup", frames, true);
    std::uint64_t established = 0;
    for (const auto& c : rig.clients) established += c->live_connections();
    const std::uint64_t rss_ramped = current_rss_bytes();
    for (auto& c : rig.clients) c->mark();
    run.advance(fl.sim, crash_at + crash_jitter(opt.seed), "measure", frames,
                true);
    const std::map<int, std::uint64_t> at_crash = rig.window_responses();
    const std::size_t victim_conns = fl.backend_connections(kVictim);
    crash_time = fl.sim.now();
    fl.crash_host(kVictim);
    run.advance(fl.sim, measure - crash_at - crash_jitter(opt.seed),
                "measure_after_crash", frames, true);

    const std::map<int, std::uint64_t> at_end = rig.window_responses();
    std::uint64_t responses = 0;
    for (const auto& [id, n] : at_end) responses += n;
    o.checks.survivors = static_cast<int>(fl.backend_count()) - 1;
    o.checks.survivors_serving = 0;
    for (std::size_t i = 0; i < fl.backend_count(); ++i) {
      if (i == kVictim) continue;
      const int id = fl.backend(i).id;
      const auto before = at_crash.count(id) ? at_crash.at(id) : 0;
      const auto after = at_end.count(id) ? at_end.at(id) : 0;
      if (after > before) ++o.checks.survivors_serving;
    }
    o.checks.completed = responses;

    const double secs = sim::to_seconds(measure);
    o.sim["sim_krps"] = static_cast<double>(responses) / secs / 1e3;
    o.sim["sim_goodput_gbps"] = static_cast<double>(responses) *
                                static_cast<double>(fleet::kPingFrame) * 8.0 /
                                secs / 1e9;
    std::vector<const obs::Hub*> hubs;
    for (std::size_t j = 0; j < fl.client_count(); ++j) {
      hubs.push_back(fl.client(j).hub.get());
    }
    record_latency(o, fleet::merged_histogram(hubs, "fleet.rtt_ns"));
    o.sim["sim_recovery_ms"] =
        down_time > crash_time ? ms(down_time - crash_time) : 0.0;
    o.checks.crashes = 1;
    o.checks.recovered = down_time > crash_time ? 1 : 0;
    // Failed: connections refused, plus every connection the dead backend
    // held (most are idle and would notice only on their next send).
    o.failed = victim_conns;
    for (const auto& c : rig.clients) {
      const auto& s = c->app_stats();
      o.attempted += s.attempted;
      o.failed += s.connect_failures;
    }
    o.sim["sim_fail_frac"] = ratio(static_cast<double>(o.failed),
                                   static_cast<double>(o.attempted));

    std::vector<NeatHost*> backends;
    std::vector<const sim::Process*> apps_procs;
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < fl.backend_count(); ++i) {
      backends.push_back(fl.backend(i).host.get());
      apps_procs.push_back(rig.servers[i].get());
      served += rig.servers[i]->app_stats().requests;
    }
    const std::uint64_t bf = rig.backend_frames();
    record_server_layers(o, fl.sim, backends, apps_procs, served, bf);
    sweep_channels(o);
    OpCounts ops;
    for (NeatHost* h : backends) add_host_ops(ops, *h);
    for (std::size_t j = 0; j < fl.client_count(); ++j) {
      add_host_ops(ops, *fl.client(j).host);
    }
    record_ops(o, ops, static_cast<double>(bf));
    record_pool_mallocs(o, bf);
    o.layer["apps.reqs_per_pkt"] = 0;
    const auto& ts = fl.steering().stats();
    o.layer["fleet.steered_per_pkt"] =
        ratio(static_cast<double>(ts.to_backend + ts.to_client),
              static_cast<double>(bf));
    o.layer["fleet.conntrack_peak"] = static_cast<double>(conntrack_peak);
    o.host_layer["fleet.rss_bytes_per_conn"] =
        ratio(static_cast<double>(rss_ramped) - static_cast<double>(rss_before),
              static_cast<double>(established));
    for (std::size_t i = 0; i < fl.backend_count(); ++i) {
      record_nic_filters(o, *fl.backend(i).nic);
    }
    if (flow_trace != nullptr) fl.sim.tracer().write_chrome_json(*flow_trace);
  }
  const auto core = current_pool_core();
  run.teardown([&rig] { rig.destroy(); });
  record_pool(run.out, core);
  return std::move(run.out);
}

using Runner = Outcome (*)(const Options&, const Probe&, std::ostream*);

const std::vector<std::pair<std::string, Runner>>& runners() {
  static const std::vector<std::pair<std::string, Runner>> r = {
      {"keepalive_small", &run_keepalive_small},
      {"churn_crash", &run_churn_crash},
      {"bulk_stream", &run_bulk_stream},
      {"fleet_failover", &run_fleet_failover},
  };
  return r;
}

}  // namespace

volatile std::uint64_t g_calib_sink = 0;

double calib_chunk_seconds() {
  const auto t0 = Clock::now();
  std::array<std::pair<std::uint64_t, std::uint64_t>, 72> heap{};
  std::size_t n = 0;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kCalibChunkEvents; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap[n++] = {x & 0xffff, acc};
    std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(n));
    if (n > 64) {
      std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(n));
      acc += heap[--n].first;
    }
  }
  g_calib_sink = g_calib_sink + acc;
  return seconds_between(t0, Clock::now());
}

void SpanLog::add(std::string name, Clock::time_point start,
                  Clock::time_point end, std::string args_json) {
  spans_.push_back(
      {std::move(name),
       std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count(),
       std::move(args_json)});
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) os << ",";
    first = false;
    char head[96];
    std::snprintf(head, sizeof head, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.dur_us);
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\","
       << head << ",\"pid\":0,\"tid\":0";
    if (!s.args_json.empty()) os << ",\"args\":{" << s.args_json << "}";
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, fn] : runners()) n.push_back(name);
    return n;
  }();
  return names;
}

bool is_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

Outcome run_workload(const Options& opt, const Probe& probe,
                     std::ostream* flow_trace) {
  for (const auto& [name, fn] : runners()) {
    if (name == opt.workload) return fn(opt, probe, flow_trace);
  }
  return {};
}

}  // namespace perfbench
