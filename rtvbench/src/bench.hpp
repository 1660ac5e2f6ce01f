// Shared plumbing of the rtv benchmark: command-line options, clocks and
// statistics, the obligation model every workload decides, and the result
// record printed as the last line of standard output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rtv/fuzz/generator.hpp"
#include "rtv/serve/wire.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/suite.hpp"

namespace rtvbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time; required unless `small` (BENCHMARK.json's run_seconds).
  double seconds = 0.0;
  bool trace = false;
  /// Small inputs and one round: exercises every check in a few seconds.
  bool small = false;
  /// Directory for the daemon's socket (inside the checkout).
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------------
// Clocks and statistics.
// ---------------------------------------------------------------------------

double now_s();
double median(std::vector<double> v);
/// Restricts the calling thread, and the threads it starts later, to the
/// CPU it runs on (true) or back to the CPUs it started with (false).
void pin_to_current_cpu(bool on);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Obligations.
// ---------------------------------------------------------------------------

/// One obligation the benchmark decides, in the two forms the library
/// takes it: module/property views for Engine::run, and the owned wire
/// form a serve::Client sends.
struct Item {
  std::string name;
  std::vector<const rtv::Module*> modules;
  std::vector<const rtv::SafetyProperty*> properties;
  std::size_t max_refinements = 500;
  bool track_chokes = true;
  rtv::serve::WireObligation wire;
};

/// A workload's obligations plus the storage keeping their views alive.
struct ItemSet {
  std::deque<rtv::Suite> suites;            // table1 and slack
  std::deque<rtv::fuzz::Scenario> scenarios;  // service
  std::vector<Item> items;
};

/// The paper's five Table 1 obligations at default timing.
ItemSet table1_items();
/// Experiments 2-5 rebuilt at every point of the slack grid (README).
ItemSet slack_items(bool small);
/// `count` distinct fuzz::generate obligations seeded from `seed`.
ItemSet service_items(std::uint64_t seed, std::size_t count);
/// The pool's generator configuration (every engine decides every case).
rtv::fuzz::GeneratorConfig pool_config();
/// Obligations in the service pool.
std::size_t pool_size(bool small);

/// Wire form of one obligation: module copies plus declarative specs of
/// the library's three built-in property families.
rtv::serve::WireObligation to_wire(
    const std::string& name, const std::vector<const rtv::Module*>& modules,
    const std::vector<const rtv::SafetyProperty*>& properties,
    std::size_t max_refinements, bool track_chokes);

/// Engine::run of one item with one worker.
rtv::EngineResult run_engine(const rtv::Engine& engine, const Item& item);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  An operation is one obligation x engine run or
/// one service request; it fails on a wrong or Inconclusive verdict, an
/// engine error or a failed per-operation check.  `correct` turns false
/// on a failed check that spans operations (paper counts, hit counters).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one operation; a false `ok` fails it and logs `why`.
  void op(bool ok, const std::string& why);
  /// A check across operations; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& why);
  std::string to_json() const;
};

}  // namespace rtvbench
