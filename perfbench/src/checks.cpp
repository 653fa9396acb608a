#include "checks.hpp"

namespace perfbench {

namespace {

std::string pair_detail(std::uint64_t lhs, std::uint64_t rhs) {
  return std::to_string(lhs) + " vs " + std::to_string(rhs);
}

}  // namespace

std::vector<CheckResult> run_checks(const CheckInputs& in) {
  std::vector<CheckResult> out;
  out.push_back({"channel_law", in.channels > 0 && in.channel_violations == 0,
                 std::to_string(in.channel_violations) + " of " +
                     std::to_string(in.channels) + " channels violate"});
  out.push_back({"pool_conservation", in.pool_out == in.pool_back,
                 "handed out vs returned " +
                     pair_detail(in.pool_out, in.pool_back)});
  const std::uint64_t accounted =
      in.filters_retired + in.filters_evicted + in.filters_live;
  out.push_back({"filter_conservation", in.filters_installed == accounted,
                 "installed vs retired+evicted+live " +
                     pair_detail(in.filters_installed, accounted)});
  out.push_back({"no_bad_status",
                 in.bad_status == 0 && in.payload_mismatches == 0,
                 std::to_string(in.bad_status) + " bad status, " +
                     std::to_string(in.payload_mismatches) +
                     " payload mismatches"});
  out.push_back({"bytes_delivered", in.bytes_delivered == in.bytes_expected,
                 "delivered vs expected " +
                     pair_detail(in.bytes_delivered, in.bytes_expected)});
  out.push_back({"survivors_serve",
                 in.survivors < 0 || in.survivors_serving == in.survivors,
                 std::to_string(in.survivors_serving) + " of " +
                     std::to_string(in.survivors) +
                     " surviving backends served after the crash"});
  out.push_back({"recovered", in.crashes > 0 && in.recovered == in.crashes,
                 std::to_string(in.recovered) + " of " +
                     std::to_string(in.crashes) +
                     " timed crashes recovered within the run"});
  out.push_back({"served_requests", in.completed > 0,
                 std::to_string(in.completed) + " requests completed"});
  return out;
}

CheckResult check_deterministic(const std::vector<std::string>& digests) {
  for (const auto& d : digests) {
    if (d != digests.front()) {
      return {"deterministic", false,
              "simulated output differs between runs of one seed"};
    }
  }
  return {"deterministic", !digests.empty(),
          std::to_string(digests.size()) + " runs identical"};
}

}  // namespace perfbench
