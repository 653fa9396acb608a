// Correctness checks applied to every run. Each check reads plain numbers
// gathered from the layers' public stats, so the benchmark's own tests can
// feed it a deliberately corrupted copy and see it fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CheckInputs {
  /// ipc::channel_registry() sweep at the end of the run: channels seen
  /// and channels where sent != delivered + dropped_full + dropped_dead +
  /// in_flight.
  std::uint64_t channels{0};
  std::uint64_t channel_violations{0};
  /// PacketPool conservation after full teardown: every packet handed out
  /// (fresh + reused) came back (recycled + dropped_full).
  std::uint64_t pool_out{0};
  std::uint64_t pool_back{0};
  /// Server NIC tracking filters: installed == retired + evicted + live.
  std::uint64_t filters_installed{0};
  std::uint64_t filters_retired{0};
  std::uint64_t filters_evicted{0};
  std::uint64_t filters_live{0};
  /// Non-200 responses and byte-level payload mismatches seen by clients.
  std::uint64_t bad_status{0};
  std::uint64_t payload_mismatches{0};
  /// Bulk transfers: body bytes delivered vs file size x requests.
  std::uint64_t bytes_expected{0};
  std::uint64_t bytes_delivered{0};
  /// Fleet: backends that survived the crash, and how many of them served
  /// responses after it (-1 survivors = not a fleet run).
  int survivors{-1};
  int survivors_serving{0};
  /// Requests completed in the window (a run that served nothing is wrong).
  std::uint64_t completed{0};
  /// Injected crashes whose recovery the run times, and how many of them
  /// recovered within the run (restarted replica served / prober evicted).
  std::uint64_t crashes{0};
  std::uint64_t recovered{0};
};

struct CheckResult {
  std::string name;
  bool ok{false};
  std::string detail;
};

/// Evaluate every check on one run's inputs.
[[nodiscard]] std::vector<CheckResult> run_checks(const CheckInputs& in);

/// Check that every rep of one seed produced the same simulated output.
[[nodiscard]] CheckResult check_deterministic(
    const std::vector<std::string>& digests);

}  // namespace perfbench
