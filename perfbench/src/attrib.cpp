#include "attrib.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "apps/http.hpp"
#include "fleet/maglev.hpp"
#include "fleet/steering.hpp"
#include "ipc/byte_ring.hpp"
#include "net/checksum.hpp"
#include "nic/toeplitz.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

using namespace neat;

namespace {

/// Keeps a value observable so the timed loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

constexpr int kRepeats = 5;

/// Median over kRepeats of the wall time of `body()` divided by `ops`.
double median_ns_per_op(double ops, const std::function<void()>& body) {
  std::array<double, kRepeats> v{};
  for (double& x : v) {
    const auto t0 = Clock::now();
    body();
    x = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        ops;
  }
  std::sort(v.begin(), v.end());
  return v[kRepeats / 2];
}

/// Host-speed reference: the calibration chunk (no simulator code), so code
/// changes in the simulator never move it and ratios against it compare
/// hosts.
double calib_events_per_s() {
  std::array<double, kRepeats> v{};
  for (double& x : v) x = calib_chunk_seconds();
  std::sort(v.begin(), v.end());
  return kCalibChunkEvents / v[kRepeats / 2];
}

/// sim::EventQueue schedule + fire, in the shape the simulator uses it.
double ns_per_event() {
  constexpr int kRounds = 3000;
  return median_ns_per_op(kRounds * 64.0, [] {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < 64; ++i) {
        q.post(static_cast<sim::SimTime>(i % 7 + 1), [&fired] { ++fired; });
      }
      q.run();
    }
    g_sink = g_sink + fired;
  });
}

double ns_per_rss_hash(const Capture& cap) {
  if (cap.tuples.empty()) return 0.0;
  const nic::ToeplitzHasher hasher;
  const std::size_t n = cap.tuples.size();
  constexpr std::size_t kOps = 100'000;
  return median_ns_per_op(kOps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const Capture::Tuple& t = cap.tuples[i % n];
      acc += hasher.hash_tuple(t.src, t.dst, t.src_port, t.dst_port);
    }
    g_sink = g_sink + acc;
  });
}

/// Transport checksum over `size`-byte segments, ns per segment.
double ns_per_csum(const std::vector<std::size_t>& sizes, std::size_t ops) {
  if (sizes.empty()) return 0.0;
  const std::size_t biggest = *std::max_element(sizes.begin(), sizes.end());
  std::vector<std::uint8_t> buf(biggest);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const net::Ipv4Addr a = net::Ipv4Addr::of(10, 0, 0, 1);
  const net::Ipv4Addr b = net::Ipv4Addr::of(10, 0, 0, 2);
  return median_ns_per_op(static_cast<double>(ops), [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      acc += net::transport_checksum(a, b, 6, {buf.data(), sizes[i % sizes.size()]});
    }
    g_sink = g_sink + acc;
  });
}

/// ByteRing write + read of the observed segment sizes, ns per KiB moved.
double ring_ns_per_kb(const std::vector<std::size_t>& sizes) {
  if (sizes.empty()) return 0.0;
  const std::size_t biggest = *std::max_element(sizes.begin(), sizes.end());
  ipc::ByteRing ring(std::max<std::size_t>(98304, 2 * biggest));
  std::vector<std::uint8_t> in(biggest, 0x5a);
  std::vector<std::uint8_t> out(biggest);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < 20'000; ++i) bytes += sizes[i % sizes.size()];
  return median_ns_per_op(static_cast<double>(bytes) / 1024.0, [&] {
    for (std::size_t i = 0; i < 20'000; ++i) {
      const std::size_t n = sizes[i % sizes.size()];
      ring.write({in.data(), n});
      ring.read({out.data(), n});
    }
    g_sink = g_sink + out[0];
  });
}

double ns_per_http_parse(const Capture& cap) {
  if (cap.http_requests.empty()) return 0.0;
  const std::size_t n = cap.http_requests.size();
  constexpr std::size_t kOps = 20'000;
  return median_ns_per_op(kOps, [&] {
    apps::HttpRequestParser parser;
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::string& r = cap.http_requests[i % n];
      got += parser.feed({reinterpret_cast<const std::uint8_t*>(r.data()),
                          r.size()})
                 .size();
    }
    g_sink = g_sink + got;
  });
}

std::vector<net::FlowKey> flows_of(const Capture& cap) {
  std::vector<net::FlowKey> flows;
  flows.reserve(cap.tuples.size());
  for (const Capture::Tuple& t : cap.tuples) {
    flows.push_back({t.dst, t.dst_port, t.src, t.src_port});
  }
  return flows;
}

double ns_per_maglev_lookup(const std::vector<net::FlowKey>& flows) {
  if (flows.empty()) return 0.0;
  fleet::MaglevTable table;
  for (int id = 0; id < 4; ++id) table.add_backend(id);
  constexpr std::size_t kOps = 100'000;
  return median_ns_per_op(kOps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      acc += static_cast<std::uint64_t>(table.lookup(flows[i % flows.size()]));
    }
    g_sink = g_sink + acc;
  });
}

std::uint64_t cycle_counter() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration<double, std::nano>(Clock::now().time_since_epoch())
          .count());
#endif
}

/// SteeringTier::steer on the captured flows against a 4-backend tier:
/// median host timestamp-counter cycles (nanoseconds where there is no TSC)
/// and nanoseconds per call.
std::pair<double, double> steer_cost(const std::vector<net::FlowKey>& flows) {
  if (flows.empty()) return {0.0, 0.0};
  sim::Simulator sim(1);
  fleet::SteeringTier tier(sim, fleet::SteeringConfig{});
  for (int id = 0; id < 4; ++id) {
    (void)tier.add_backend_port(id, net::MacAddr::local(50 + id));
    tier.add_backend(id);
  }
  constexpr std::size_t kOps = 100'000;
  std::array<double, kRepeats> cycles{};
  std::array<double, kRepeats> ns{};
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t c0 = cycle_counter();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      acc += static_cast<std::uint64_t>(tier.steer(flows[i % flows.size()]));
    }
    cycles[r] = static_cast<double>(cycle_counter() - c0) / kOps;
    ns[r] = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
            kOps;
    g_sink = g_sink + acc;
  }
  std::sort(cycles.begin(), cycles.end());
  std::sort(ns.begin(), ns.end());
  return {cycles[kRepeats / 2], ns[kRepeats / 2]};
}

double get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it != m.end() ? it->second : 0.0;
}

}  // namespace

std::map<std::string, double> time_layers(const Capture& cap) {
  std::map<std::string, double> m;
  m["sim.calib_events_per_s"] = calib_events_per_s();
  m["sim.ns_per_event"] = ns_per_event();
  m["nic.ns_per_rss_hash"] = ns_per_rss_hash(cap);
  m["net.ns_per_csum_1460"] = ns_per_csum({1460}, 50'000);
  m["net.ns_per_csum_seg"] = ns_per_csum(cap.segment_sizes, 20'000);
  m["ipc.ring_ns_per_kb"] = ring_ns_per_kb(cap.segment_sizes);
  m["apps.ns_per_http_parse"] = ns_per_http_parse(cap);
  const std::vector<net::FlowKey> flows = flows_of(cap);
  m["fleet.ns_per_maglev_lookup"] = ns_per_maglev_lookup(flows);
  const auto [steer_cycles, steer_ns] = steer_cost(flows);
  m["fleet.steer_cycles_per_pkt"] = steer_cycles;
  m["fleet.ns_per_steer"] = steer_ns;
  return m;
}

void attribute(std::map<std::string, double>& layer, double host_ns_per_pkt) {
  const double sim_est = get(layer, "sim.events_per_pkt") *
                         get(layer, "sim.ns_per_event");
  const double nic_est = get(layer, "nic.rss_hashes_per_pkt") *
                         get(layer, "nic.ns_per_rss_hash");
  const double net_est = get(layer, "tcp.segs_per_pkt") *
                         get(layer, "net.ns_per_csum_seg");
  const double ipc_est = get(layer, "ipc.stream_kb_per_pkt") *
                         get(layer, "ipc.ring_ns_per_kb");
  const double apps_est = get(layer, "apps.reqs_per_pkt") *
                          get(layer, "apps.ns_per_http_parse");
  const double fleet_est = get(layer, "fleet.steered_per_pkt") *
                           get(layer, "fleet.ns_per_steer");
  layer["sim.est_ns_per_pkt"] = sim_est;
  layer["nic.est_ns_per_pkt"] = nic_est;
  layer["net.est_ns_per_pkt"] = net_est;
  layer["ipc.est_ns_per_pkt"] = ipc_est;
  layer["apps.est_ns_per_pkt"] = apps_est;
  layer["fleet.est_ns_per_pkt"] = fleet_est;
  layer["sim.host_ns_per_pkt"] = host_ns_per_pkt;
  const double explained =
      sim_est + nic_est + net_est + ipc_est + apps_est + fleet_est;
  layer["sim.unattributed_frac"] =
      host_ns_per_pkt > 0 ? 1.0 - explained / host_ns_per_pkt : 0.0;
}

}  // namespace perfbench
