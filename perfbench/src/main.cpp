// neatbench: one workload, one seed, one process.
//
//   neatbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-dir DIR] [--corrupt CHECK]
//
// Untraced (--trace 0) it repeats the workload (fresh build, run, teardown)
// until S seconds are spent, checks every run, and reports the end-to-end
// metrics: host cost as medians over the runs, simulated results (identical
// across runs of one seed, which is itself checked). Traced (--trace 1) it
// adds one run with host spans and wire capture, times each layer's public
// functions on the captured inputs, and reports the per-layer metrics. The
// last line of stdout is the JSON result.
//
// --tiny shrinks every window for the benchmark's own tests; --corrupt
// falsifies one correctness input after the run to prove the check fires.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attrib.hpp"
#include "checks.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"host_pkts_per_s", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"sim_krps", "krps"},
    {"sim_goodput_gbps", "Gbps"}, {"sim_p50_ms", "ms"},
    {"sim_p99_ms", "ms"},       {"sim_fail_frac", "frac"},
    {"sim_recovery_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events_per_pkt", "count"},
    {"sim.fused_frac", "frac"},
    {"sim.ns_per_event", "ns"},
    {"sim.calib_events_per_s", "1/s"},
    {"sim.host_ns_per_pkt", "ns"},
    {"sim.raw_pkts_per_s", "1/s"},
    {"sim.host_slowdown", "ratio"},
    {"sim.est_ns_per_pkt", "ns"},
    {"sim.unattributed_frac", "frac"},
    {"nic.filter_hit_frac", "frac"},
    {"nic.filters_installed_per_conn", "count"},
    {"nic.rx_batch_mean", "count"},
    {"nic.rss_hashes_per_pkt", "count"},
    {"nic.ns_per_rss_hash", "ns"},
    {"nic.est_ns_per_pkt", "ns"},
    {"drv.busy_frac", "frac"},
    {"drv.poll_frac", "frac"},
    {"drv.kernel_frac", "frac"},
    {"ipc.msgs_per_batch", "count"},
    {"ipc.queue_delay_p99_us", "us"},
    {"ipc.dropped", "count"},
    {"ipc.stream_kb_per_pkt", "KiB"},
    {"ipc.ring_ns_per_kb", "ns/KiB"},
    {"ipc.est_ns_per_pkt", "ns"},
    {"net.ns_per_csum_1460", "ns"},
    {"net.ns_per_csum_seg", "ns"},
    {"net.pool_mallocs_per_pkt", "count"},
    {"net.est_ns_per_pkt", "ns"},
    {"tcp.segs_per_req", "count"},
    {"tcp.segs_per_pkt", "count"},
    {"tcp.pure_ack_frac", "frac"},
    {"tcp.retransmits_per_kseg", "count"},
    {"tcp.cycles_per_pkt", "cycles"},
    {"ip.cycles_per_pkt", "cycles"},
    {"socklib.wakeups_per_req", "count"},
    {"syscall.cycles_per_conn", "cycles"},
    {"apps.web_cycles_per_req", "cycles"},
    {"apps.reqs_per_pkt", "count"},
    {"apps.ns_per_http_parse", "ns"},
    {"apps.est_ns_per_pkt", "ns"},
    {"neat.detect_ms", "ms"},
    {"neat.restart_ms", "ms"},
    {"neat.conns_lost", "count"},
    {"neat.replica_skew", "ratio"},
    {"wl.client_busy_frac", "frac"},
    {"wl.sessions_shed", "count"},
    {"wl.latency_samples", "count"},
    {"wl.p99_bucket_ms", "ms"},
    {"fleet.steer_cycles_per_pkt", "cycles"},
    {"fleet.ns_per_steer", "ns"},
    {"fleet.steered_per_pkt", "count"},
    {"fleet.conntrack_peak", "count"},
    {"fleet.ns_per_maglev_lookup", "ns"},
    {"fleet.rss_bytes_per_conn", "B"},
    {"fleet.est_ns_per_pkt", "ns"},
    {"harness.build_s.testbed", "s"},
    {"harness.build_s.server", "s"},
    {"harness.build_s.client", "s"},
    {"harness.build_s.bulk_clients", "s"},
    {"harness.build_s.open_loop_clients", "s"},
    {"harness.build_s.arp", "s"},
    {"harness.build_s.fleet_cluster", "s"},
    {"harness.build_s.fleet_apps", "s"},
    {"obs.trace_overhead_frac", "frac"},
};

/// Measured runs per process at least: one warm-up run plus two timed ones.
constexpr std::size_t kMinRuns = 3;
/// Set-up-only builds after each measured run (set-up samples).
constexpr std::size_t kSetupPerRun = 12;

struct Args {
  Options opt;
  double seconds{10.0};
  bool trace{false};
  std::string trace_dir{".bench_build/traces"};
  std::string corrupt;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "neatbench: %s\nusage: neatbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-dir DIR] "
               "[--corrupt CHECK]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.opt.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--tiny") {
      a.opt.tiny = true;
    } else if (k == "--trace-dir") {
      a.trace_dir = value();
    } else if (k == "--corrupt") {
      a.corrupt = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload || !is_workload(a.opt.workload)) {
    usage("unknown or missing --workload");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Simulated output of one run, printed exactly: equal strings mean the
/// run reproduced bit for bit.
std::string digest(const Outcome& o) {
  std::ostringstream ss;
  char buf[64];
  const auto put = [&](const std::string& k, double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    ss << k << '=' << buf << ';';
  };
  for (const auto& [k, v] : o.sim) put(k, v);
  for (const auto& [k, v] : o.layer) put(k, v);
  put("attempted", static_cast<double>(o.attempted));
  put("failed", static_cast<double>(o.failed));
  put("samples", static_cast<double>(o.latency_samples));
  put("frames", static_cast<double>(o.frames));
  put("events", static_cast<double>(o.events));
  return ss.str();
}

/// Falsify one correctness input (the benchmark's own tests use this).
void corrupt(CheckInputs& c, std::vector<std::string>& digests,
             const std::string& which) {
  if (which == "channel_law") {
    ++c.channel_violations;
  } else if (which == "pool_conservation") {
    ++c.pool_out;
  } else if (which == "filter_conservation") {
    ++c.filters_installed;
  } else if (which == "no_bad_status") {
    ++c.bad_status;
  } else if (which == "bytes_delivered") {
    ++c.bytes_delivered;
  } else if (which == "survivors_serve") {
    c.survivors = std::max(c.survivors, 1);
    c.survivors_serving = c.survivors - 1;
  } else if (which == "recovered") {
    c.recovered = 0;
  } else if (which == "served_requests") {
    c.completed = 0;
  } else if (which == "deterministic") {
    digests.push_back(digests.front() + "x");
  } else {
    usage(("unknown --corrupt check " + which).c_str());
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metric(std::ostringstream& js, bool& first, const Metric& m,
                  double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  js << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << m.unit << "\"}";
  first = false;
  std::printf("  %-36s %16s %s\n", m.name, buf, m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::printf("neatbench %s seed=%llu seconds=%g trace=%d%s\n",
              args.opt.workload.c_str(),
              static_cast<unsigned long long>(args.opt.seed), args.seconds,
              args.trace ? 1 : 0, args.opt.tiny ? " (tiny)" : "");

  // --- measured runs (untraced) ---------------------------------------------
  // Traced mode keeps half the budget for its traced run and the
  // micro-timings. Set-up samples are spread across the run, a few after
  // each measured run, each rescaled by a calibration chunk timed next to it.
  const double budget = args.trace ? args.seconds * 0.5 : args.seconds;
  std::vector<Outcome> runs;
  std::vector<std::string> digests;
  std::vector<double> setup_ref;
  double peak_rss = 0.0;
  do {
    const double t0 = elapsed();
    runs.push_back(run_workload(args.opt, Probe{}));
    const Outcome& o = runs.back();
    digests.push_back(digest(o));
    // Later runs reuse (and fragment) the first run's heap; the first run's
    // peak is the workload's footprint.
    if (runs.size() == 1) peak_rss = peak_rss_mb();
    for (std::size_t i = 0; i < kSetupPerRun; ++i) {
      Probe only;
      only.setup_only = true;
      const double s = run_workload(args.opt, only).setup_s;
      setup_ref.push_back(s * kRefChunkSeconds / calib_chunk_seconds());
    }
    std::printf("  run %zu: %.0f pkts/s (%.0f at reference speed, host "
                "slowdown %.3f), setup %.6f s, run %.3f s, teardown %.4f s\n",
                runs.size(), static_cast<double>(o.frames) / o.run_s,
                static_cast<double>(o.frames) / o.run_ref_s, o.slowdown,
                o.setup_s, o.run_s, o.teardown_s);
    std::fflush(stdout);
    const double rep = elapsed() - t0;
    if (runs.size() >= kMinRuns && elapsed() + rep > budget) break;
  } while (true);

  // The first run warms caches and the allocator: it is checked like every
  // other run but left out of the host-cost medians.
  std::vector<double> pkts_ref, pkts_raw, slowdown;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Outcome& o = runs[i];
    const auto f = static_cast<double>(o.frames);
    pkts_ref.push_back(f / o.run_ref_s);
    pkts_raw.push_back(f / o.run_s);
    slowdown.push_back(o.slowdown);
  }

  Outcome& first = runs.front();
  std::vector<CheckInputs> checked;
  for (const Outcome& o : runs) checked.push_back(o.checks);
  std::map<std::string, double> layer = first.layer;
  for (const auto& [k, v] : first.host_layer) layer[k] = v;

  // --- traced run ------------------------------------------------------------
  if (args.trace) {
    std::filesystem::create_directories(args.trace_dir);
    const std::string stem = args.trace_dir + "/" + args.opt.workload + "-" +
                             std::to_string(args.opt.seed);
    SpanLog spans;
    Capture cap;
    Probe probe;
    probe.spans = &spans;
    probe.capture = &cap;
    std::ofstream flow(stem + ".flow.json");
    const Outcome traced = run_workload(args.opt, probe, &flow);
    digests.push_back(digest(traced));
    checked.push_back(traced.checks);
    std::ofstream span_file(stem + ".spans.json");
    spans.write_chrome_json(span_file);
    layer["obs.trace_overhead_frac"] =
        median(pkts_ref) * traced.run_ref_s / static_cast<double>(traced.frames) -
        1.0;
    for (const auto& [k, v] : time_layers(cap)) layer[k] = v;
    // The micro-timings are raw host nanoseconds, so they are set against
    // the raw host time per frame.
    attribute(layer, 1e9 / median(pkts_raw));
    std::printf("  traced run: %zu spans, %zu tuples, %zu requests, %zu "
                "segment sizes -> %s.{spans,flow}.json\n",
                spans.spans().size(), cap.tuples.size(),
                cap.http_requests.size(), cap.segment_sizes.size(),
                stem.c_str());
  }
  layer["wl.latency_samples"] = static_cast<double>(first.latency_samples);
  layer["sim.raw_pkts_per_s"] = median(pkts_raw);
  layer["sim.host_slowdown"] = median(slowdown);
  for (const auto& [name, s] : first.build_s) {
    layer["harness.build_s." + name] = s;
  }

  // --- correctness -------------------------------------------------------------
  if (!args.corrupt.empty()) corrupt(checked.front(), digests, args.corrupt);
  std::vector<CheckResult> checks;
  for (const CheckInputs& in : checked) {
    for (CheckResult& c : run_checks(in)) {
      const auto it = std::find_if(checks.begin(), checks.end(),
                                   [&](const CheckResult& x) {
                                     return x.name == c.name;
                                   });
      if (it == checks.end()) {
        checks.push_back(std::move(c));
      } else if (it->ok && !c.ok) {
        *it = std::move(c);
      }
    }
  }
  checks.push_back(check_deterministic(digests));
  bool correct = true;
  std::printf("checks over %zu runs:\n", checked.size());
  for (const CheckResult& c : checks) {
    std::printf("  %-20s %s  (%s)\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                c.detail.c_str());
    correct = correct && c.ok;
  }

  // --- result ----------------------------------------------------------------
  std::map<std::string, double> e2e = first.sim;
  e2e["host_pkts_per_s"] = median(pkts_ref);
  e2e["setup_s"] = median(setup_ref);
  e2e["peak_rss_mb"] = peak_rss;
  std::uint64_t failed = first.failed;
  if (!correct) {
    // A run that fails a check counts every operation as failed.
    failed = first.attempted;
    e2e["sim_fail_frac"] = 1.0;
  }
  std::printf("latency samples: %llu (p99 has %llu beyond it)\n",
              static_cast<unsigned long long>(first.latency_samples),
              static_cast<unsigned long long>(first.latency_samples / 100));

  std::ostringstream js;
  bool first_metric = true;
  std::printf("%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  if (args.trace) {
    for (const Metric& m : kPerLayer) {
      const auto it = layer.find(m.name);
      print_metric(js, first_metric, m, it != layer.end() ? it->second : 0.0);
    }
  } else {
    for (const Metric& m : kEndToEnd) {
      const auto it = e2e.find(m.name);
      print_metric(js, first_metric, m, it != e2e.end() ? it->second : 0.0);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(failed), js.str().c_str());
  return 0;
}
