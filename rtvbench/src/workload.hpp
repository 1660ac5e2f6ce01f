// The three workloads as one round-based runner.
//
// A round takes the workload's obligations one at a time.  Each engine
// (refine, zone, discrete; one worker each) decides the obligation a fixed
// number of times, then an in-process serve::Server answers its request
// once per cold pass (cache cleared first: a miss) and once per warm pass
// (a hit).  Every run attempts whole rounds, so the operation counts are
// the same multiple of the round in every run.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calibration.hpp"
#include "rtv/serve/client.hpp"
#include "rtv/serve/server.hpp"
#include "rtv/ts/compose.hpp"

namespace rtvbench {

/// Fixed shape of one workload's round.
struct WorkloadSpec {
  std::string name;
  /// Passes per round for refine, zone, discrete (short passes repeat).
  std::array<int, 3> passes = {1, 1, 1};
  int cold_passes = 1;
  int warm_passes = 1;
  /// Engines each service request names.
  std::vector<std::string> serve_engines;
  /// Set-up repetitions whose median is setup_s.
  int setups = 9;
};

/// One round's end-to-end figures.
struct RoundFigures {
  std::array<double, 3> engine_s{};  ///< median pass time per engine
  double cold_rps = 0.0;
  double warm_rps = 0.0;
};

/// Registry readings of one traced round, split by phase.
struct RoundCapture {
  /// Growth over the direct Engine::run calls of: refinement iterations,
  /// refine states, zones, subsumed zones, subsumption checks, digitized
  /// configurations, digitized BFS layers.
  std::array<double, 7> engine_counts{};
  /// Daemon request time (rtv_serve_request_seconds) and request counts.
  double cold_request_s = 0.0, warm_request_s = 0.0;
  std::size_t cold_requests = 0, warm_requests = 0;
  /// rtv_suite_queue_wait_seconds growth over the cold requests.
  double queue_wait_s = 0.0;
  std::uint64_t queue_waits = 0;
  /// Client round trips and daemon hit-counter growth over warm requests.
  double warm_rtt_s = 0.0;
  std::uint64_t warm_hits = 0;
  std::size_t warm_passes = 0;
};

struct Meters;

class Runner {
 public:
  /// `calibration` (may be null) samples between operations.
  Runner(const Options& options, Calibration* calibration);
  ~Runner();

  const WorkloadSpec& spec() const { return spec_; }
  const ItemSet& items() const { return set_; }

  /// Builds the obligations and starts the daemon (replacing any earlier
  /// set-up); returns the wall time.
  double setup();
  /// One round, every output checked into `report`.
  RoundFigures round(Report& report, RoundCapture* capture = nullptr);

 private:
  /// One request of obligation `i`, timed by the client, with the daemon's
  /// counters around it.
  struct Request {
    rtv::serve::ServeResponse response;
    double seconds = 0.0;
    std::uint64_t computed = 0, hits = 0;
    double daemon_s = 0.0, queue_wait_s = 0.0;
    std::uint64_t queue_waits = 0;
  };
  Request request(std::size_t i, const Meters* meters);
  void check_direct(Report& report,
                    const std::array<std::vector<rtv::EngineResult>, 3>& r);
  void check_cold(
      Report& report, std::size_t i, const rtv::serve::ServeResponse& resp,
      const std::array<std::vector<std::vector<rtv::EngineResult>>, 3>& passes);
  void check_warm(Report& report, std::size_t i,
                  const rtv::serve::ServeResponse& warm,
                  const rtv::serve::ServeResponse& cold);
  const rtv::Composition& composition(std::size_t item);

  Options options_;
  Calibration* calibration_;
  WorkloadSpec spec_;
  ItemSet set_;
  std::vector<rtv::serve::ServeRequest> requests_;
  std::vector<std::size_t> order_;
  std::unique_ptr<rtv::serve::Server> server_;
  rtv::serve::Client client_;
  std::string socket_path_;
  /// Direct verdicts of the current round, per engine and item.
  std::array<std::vector<rtv::EngineResult>, 3> direct_;
  /// compose() of each item, built on first use by the replay check.
  std::vector<std::optional<rtv::Composition>> compositions_;
};

}  // namespace rtvbench
