// rtvbench: the repository benchmark (see ../README.md).
//
//   rtvbench --workload table1|slack|service --seed N --seconds S
//            --trace 0|1 [--small] [--work-dir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <sched.h>
#include <sys/resource.h>

#include "bench.hpp"
#include "calibration.hpp"
#include "layers.hpp"
#include "rtv/base/json.hpp"
#include "workload.hpp"

namespace rtvbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void pin_to_current_cpu(bool on) {
  static cpu_set_t all;
  static const bool saved = sched_getaffinity(0, sizeof all, &all) == 0;
  if (!saved) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  sched_setaffinity(0, sizeof(cpu_set_t), on ? &one : &all);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes on Linux
}

void Report::op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::check(bool ok, const std::string& why) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    rtv::json::append_string(out, metrics[i].name);
    out += ": {\"value\": ";
    rtv::json::append_double(out, metrics[i].value);
    out += ", \"unit\": ";
    rtv::json::append_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

namespace {

/// The end-to-end run: repeated set-ups, then whole rounds until the next
/// round would overrun `seconds` (at least one).  Times and rates are
/// reported host-normalized (calibration.hpp); stderr has the raw ones.
Report run_end_to_end(const Options& o) {
  Report report;
  Calibration cal;
  cal.sample();
  Runner runner(o, &cal);
  std::vector<double> setups;
  for (int s = 0; s < runner.spec().setups; ++s) {
    setups.push_back(runner.setup());
    cal.tick();
  }

  std::array<std::vector<double>, 3> engine_s;
  std::vector<double> cold, warm;
  const double start = now_s();
  for (int rounds = 1;; ++rounds) {
    const RoundFigures fig = runner.round(report);
    for (std::size_t e = 0; e < 3; ++e) engine_s[e].push_back(fig.engine_s[e]);
    cold.push_back(fig.cold_rps);
    warm.push_back(fig.warm_rps);
    const double elapsed = now_s() - start;
    std::fprintf(stderr,
                 "round %d: refine %.3f s, zone %.4f s, discrete %.3f s, "
                 "cold %.1f/s, warm %.1f/s (raw)\n",
                 rounds, fig.engine_s[0], fig.engine_s[1], fig.engine_s[2],
                 fig.cold_rps, fig.warm_rps);
    if (o.small || elapsed + elapsed / rounds > o.seconds) break;
  }
  const double slow = cal.slowdown();
  std::fprintf(stderr, "host slowdown %.4f (median of %zu reference samples)\n",
               slow, cal.samples());
  report.add("setup_s", median(setups) / slow, "s");
  report.add("refine_s", median(engine_s[0]) / slow, "s");
  report.add("zone_s", median(engine_s[1]) / slow, "s");
  report.add("discrete_s", median(engine_s[2]) / slow, "s");
  report.add("cold_rps", median(cold) * slow, "1/s");
  report.add("warm_rps", median(warm) * slow, "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rtvbench: %s\nusage: rtvbench --workload table1|slack|service "
               "--seed N --seconds S --trace 0|1 [--small] [--work-dir DIR]\n",
               why.c_str());
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--small") o.small = true;
    else usage("unknown argument " + a);
  }
  if (o.workload != "table1" && o.workload != "slack" &&
      o.workload != "service")
    usage("unknown workload '" + o.workload + "'");
  if (!o.small && !(o.seconds > 0.0)) usage("--seconds S (S > 0) is required");
  return o;
}

}  // namespace

}  // namespace rtvbench

int main(int argc, char** argv) {
  const rtvbench::Options o = rtvbench::parse(argc, argv);
  // One CPU for the whole process, daemon threads included (README.md,
  // "Steadiness").
  rtvbench::pin_to_current_cpu(true);
  try {
    const rtvbench::Report r =
        o.trace ? rtvbench::run_layers(o) : rtvbench::run_end_to_end(o);
    std::printf("%s\n", r.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtvbench: %s\n", e.what());
    return 70;
  }
}
