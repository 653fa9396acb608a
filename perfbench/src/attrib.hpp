// Outside-in host-time attribution: a calibration loop that measures the
// host's speed independently of the simulator's code, plus micro-timings of
// each layer's public functions replayed on inputs captured from the
// workload's wire (5-tuples, real request bytes, observed segment sizes).
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Time the layers' public functions on `cap`. Returns per-layer host
/// metrics (nanoseconds or cycles per operation, calibration rate).
[[nodiscard]] std::map<std::string, double> time_layers(const Capture& cap);

/// Combine per-operation host times with the run's operation counts per
/// frame into <layer>.est_ns_per_pkt, and the share of the measured host
/// time per frame that none of them explains (sim.unattributed_frac).
void attribute(std::map<std::string, double>& layer, double host_ns_per_pkt);

}  // namespace perfbench
