// The benchmark's four workloads, driven through the simulator's public
// entry points (harness, wl, fault, fleet) and observed from outside: every
// number here is read from a layer's public stats or timed around a call
// into it. Nothing in the simulator itself is instrumented for the bench.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "net/addr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Reference duration of one calibration chunk: its wall time on a 4-core
/// 2.0 GHz x86 VM. Host times are rescaled by (this / the chunk's wall time
/// measured around them), so a host whose cores run slower, or are shared
/// with other tenants, does not read as a change in the simulator's cost.
inline constexpr double kRefChunkSeconds = 0.0012;

/// Heap operations in one calibration chunk.
inline constexpr int kCalibChunkEvents = 30000;

/// Run one calibration chunk (fixed, cache-resident work touching no
/// simulator code: kCalibChunkEvents pushes on an event-style binary heap
/// driven by a xorshift generator); returns its wall time in seconds.
double calib_chunk_seconds();

/// Host wall-clock spans recorded around calls into the simulator (setup
/// calls, fixed-length run_for slices, teardown). Written as chrome
/// trace JSON next to the simulator's own flow trace.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us{0.0};
    double dur_us{0.0};
    std::string args_json;  ///< body of the chrome "args" object
  };

  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::string args_json = {});
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_chrome_json(std::ostream& os) const;

 private:
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
};

/// Inputs captured from the simulated wire during a traced run; the
/// attribution micro-timings replay them through the layers' public
/// functions.
struct Capture {
  struct Tuple {
    neat::net::Ipv4Addr src;
    neat::net::Ipv4Addr dst;
    std::uint16_t src_port{0};
    std::uint16_t dst_port{0};
  };
  std::vector<Tuple> tuples;                ///< 5-tuples of received frames
  std::vector<std::string> http_requests;   ///< request bytes as sent
  std::vector<std::size_t> segment_sizes;   ///< TCP payload bytes per frame
};

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  /// Shrunk windows and populations for the benchmark's own tests.
  bool tiny{false};
};

/// Everything one simulation of one workload yields.
struct Outcome {
  /// End-to-end simulated results (sim_* metrics), seed-deterministic.
  std::map<std::string, double> sim;
  /// Deterministic per-layer work counts and simulated-cycle ratios.
  std::map<std::string, double> layer;
  /// Per-layer host measurements taken during the run (not deterministic).
  std::map<std::string, double> host_layer;
  /// Latency samples behind sim_p50_ms / sim_p99_ms.
  std::uint64_t latency_samples{0};
  /// Operations the simulated clients attempted and how many failed
  /// (requests, sessions or connections, per workload).
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  CheckInputs checks;

  // --- host cost --------------------------------------------------------
  /// Server-side NIC frames and executed events over the timed run.
  std::uint64_t frames{0};
  std::uint64_t events{0};
  double setup_s{0.0};  ///< sum of the set-up calls
  double run_s{0.0};    ///< wall time of the simulated run
  /// run_s with every slice rescaled by the calibration chunk timed right
  /// after it (reference-host seconds).
  double run_ref_s{0.0};
  /// Mean wall time of those chunks over kRefChunkSeconds (> 1: slower host).
  double slowdown{1.0};
  double teardown_s{0.0};
  /// Wall time of each set-up call, in call order.
  std::vector<std::pair<std::string, double>> build_s;
};

/// Optional observation attached to one run.
struct Probe {
  SpanLog* spans{nullptr};
  Capture* capture{nullptr};
  /// Build, then tear down without simulating (set-up timing samples).
  bool setup_only{false};
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] bool is_workload(const std::string& name);

/// Run one workload once. The simulator writes its flow trace into
/// `flow_trace` when non-null (traced runs only).
Outcome run_workload(const Options& opt, const Probe& probe,
                     std::ostream* flow_trace = nullptr);

}  // namespace perfbench
