#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "rtv/analysis/slice.hpp"
#include "rtv/base/json.hpp"
#include "rtv/lazy/refined_system.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/serve/cache.hpp"
#include "rtv/timing/trace_timing.hpp"
#include "rtv/verify/failure_search.hpp"
#include "rtv/verify/witness.hpp"
#include "rtv/zone/discrete.hpp"
#include "workload.hpp"

namespace rtvbench {

namespace {

/// One closed span of a Chrome trace-event document.
struct SpanRec {
  std::string name;
  std::uint64_t tid = 0;
  double start_us = 0.0;
  double dur_s = 0.0;
  int parent = -1;  ///< index of the enclosing span on the same thread
};

std::vector<SpanRec> parse_spans(const std::string& doc) {
  const rtv::json::Value root = rtv::json::parse(doc, "trace");
  std::vector<SpanRec> spans;
  std::map<std::uint64_t, std::vector<int>> open;  // per-thread stacks
  for (const rtv::json::Value& ev : root.find("traceEvents")->array) {
    const rtv::json::Value* ph = ev.find("ph");
    if (!ph || (ph->string != "B" && ph->string != "E")) continue;
    const auto tid = static_cast<std::uint64_t>(ev.find("tid")->number);
    const double ts = ev.find("ts")->number;
    std::vector<int>& stack = open[tid];
    if (ph->string == "B") {
      SpanRec s;
      s.name = ev.find("name")->string;
      s.tid = tid;
      s.start_us = ts;
      s.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(std::move(s));
    } else if (!stack.empty()) {
      spans[stack.back()].dur_s = (ts - spans[stack.back()].start_us) * 1e-6;
      stack.pop_back();
    }
  }
  return spans;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Median over `reps` of the wall time of `f`.
template <typename F>
double median_time(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) t.push_back(timed(f));
  return median(t);
}

}  // namespace

Report run_layers(const Options& o) {
  Report report;
  Runner runner(o, nullptr);
  runner.setup();
  const WorkloadSpec& spec = runner.spec();
  const ItemSet& set = runner.items();
  const int setups = o.small ? 1 : 5;

  // Set-up layers.  The service pool stands in for the fuzz layer on
  // every workload; Table 1 stands in for ipcmos on the service workload.
  report.add("ipcmos.build_s", median_time(setups, [&] {
               if (o.workload == "slack") slack_items(o.small);
               else table1_items();
             }), "s");
  report.add("fuzz.generate_s", median_time(setups, [&] {
               for (std::size_t i = 0; i < pool_size(o.small); ++i)
                 rtv::fuzz::generate(rtv::fuzz::case_seed(o.seed, i),
                                     pool_config());
             }), "s");

  // One untraced round, then the same round traced.
  const double plain_s = timed([&] { runner.round(report); });
  rtv::obs::Registry::global().reset();
  RoundCapture cap;
  rtv::obs::start_tracing();
  const double traced_s = timed([&] { runner.round(report, &cap); });
  const std::vector<SpanRec> spans =
      parse_spans(rtv::obs::stop_tracing_json());
  const std::uint64_t main_tid = rtv::obs::thread_index();

  // Engine spans of the direct passes run on this thread; the daemon's
  // run on its own.  Exploration time is the engine span minus the
  // compose span inside it.
  std::vector<double> iterations;
  double last_iter_s = 0.0, zone_s = 0.0, discrete_s = 0.0, compute_s = 0.0;
  std::vector<std::optional<std::size_t>> last_iter(spans.size());
  std::vector<double> compose_in(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (starts_with(s.name, "batch:")) compute_s += s.dur_s;
    if (s.tid != main_tid || s.parent < 0) continue;
    if (s.name == "compose") compose_in[s.parent] += s.dur_s;
    if (starts_with(s.name, "refine iteration ")) {
      iterations.push_back(s.dur_s);
      last_iter[s.parent] = i;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.tid != main_tid) continue;
    if (s.name == "engine:refine" && last_iter[i])
      last_iter_s += spans[*last_iter[i]].dur_s;
    if (s.name == "engine:zone") zone_s += s.dur_s - compose_in[i];
    if (s.name == "engine:discrete") discrete_s += s.dur_s - compose_in[i];
  }

  // The benchmark's own calls into each layer, one pass over the items.
  double compose_s = 0, lint_s = 0, slice_s = 0, search_s = 0, witness_s = 0,
         timing_s = 0, key_s = 0;
  double composed = 0, sliced = 0, search_states = 0;
  rtv::SuiteOptions suite_opts;
  suite_opts.engines = {"refine", "zone", "discrete"};
  for (const Item& item : set.items) {
    rtv::ComposeOptions co;
    co.track_chokes = item.track_chokes;
    std::optional<rtv::Composition> comp;
    compose_s += timed([&] { comp = rtv::compose(item.modules, co); });
    composed += static_cast<double>(comp->ts.num_states());

    rtv::Obligation ob;
    ob.name = item.name;
    ob.modules = item.modules;
    ob.properties = item.properties;
    ob.track_chokes = item.track_chokes;
    lint_s += timed([&] { rtv::lint::lint_obligation(ob, suite_opts); });
    rtv::analysis::SliceOptions so;
    so.track_chokes = item.track_chokes;
    slice_s += timed([&] {
      sliced += static_cast<double>(
          rtv::analysis::slice(item.modules, item.properties, so)
              .dropped_modules);
    });

    rtv::RefinedSystem sys(comp->ts);
    sys.set_chokes(comp->chokes);
    rtv::FailureSearchStats st;
    std::optional<rtv::Failure> failure;
    search_s += timed([&] {
      failure = rtv::find_failure(sys, comp->chokes, item.properties,
                                  2'000'000, &st);
    });
    search_states += static_cast<double>(st.states_explored);
    if (failure) {
      timing_s += timed([&] {
        rtv::TraceTimingModel model(comp->ts, failure->trace,
                                    failure->virtual_event, comp->chokes);
        if (!model.consistent())
          if (auto win = model.find_ban_window()) model.explain(*win);
      });
      witness_s += timed([&] {
        rtv::make_witness(comp->ts, failure->trace, failure->virtual_event,
                          comp->chokes);
      });
    }
    key_s += timed([&] {
      rtv::serve::obligation_cache_key(item.wire, rtv::SuiteMode::kBatch,
                                       spec.serve_engines, 0, 0.0,
                                       item.max_refinements);
    });
  }

  // The jobs = nproc slowdown of small digitized runs, on the pool.
  const ItemSet pool = o.workload == "service"
                           ? ItemSet{}
                           : service_items(o.seed, pool_size(o.small));
  const ItemSet& small = o.workload == "service" ? set : pool;
  std::vector<rtv::Composition> small_comps;
  for (const Item& item : small.items) {
    rtv::ComposeOptions co;
    co.track_chokes = item.track_chokes;
    small_comps.push_back(rtv::compose(item.modules, co));
  }
  const auto explore_all = [&](std::size_t jobs) {
    return timed([&] {
      for (std::size_t i = 0; i < small_comps.size(); ++i) {
        rtv::DiscreteVerifyOptions dopt;
        dopt.jobs = jobs;
        rtv::discrete_explore(small_comps[i].ts, small.items[i].properties,
                              small_comps[i].chokes, dopt);
      }
    });
  };
  const double jobs1_s = explore_all(1);
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  pin_to_current_cpu(false);  // the workers need the other CPUs
  const double jobsn_s = explore_all(nproc);
  pin_to_current_cpu(true);

  const double p_refine = spec.passes[0], p_zone = spec.passes[1],
               p_discrete = spec.passes[2];
  const double cold_requests = static_cast<double>(cap.cold_requests);
  const double warm_requests = static_cast<double>(cap.warm_requests);
  const double warm_request_s = cap.warm_request_s / warm_requests;
  const auto& counts = cap.engine_counts;

  report.add("ts.compose_s", compose_s, "s");
  report.add("ts.composed_states", composed, "count");
  report.add("lint.preflight_s", lint_s, "s");
  report.add("analysis.slice_s", slice_s, "s");
  report.add("analysis.sliced_modules", sliced, "count");
  report.add("verify.refine_iterations", counts[0] / p_refine, "count");
  report.add("verify.refine_states", counts[1] / p_refine, "count");
  report.add("verify.refine_iter_s", median(iterations), "s");
  report.add("verify.refine_last_iter_s", last_iter_s / p_refine, "s");
  report.add("verify.failure_search_s", search_s, "s");
  report.add("verify.failure_search_states", search_states, "count");
  report.add("verify.witness_s", witness_s, "s");
  report.add("verify.cache_key_s", key_s, "s");
  report.add("verify.suite_queue_wait_s",
             cap.queue_waits ? cap.queue_wait_s / static_cast<double>(cap.queue_waits)
                             : 0.0,
             "s");
  report.add("timing.trace_timing_s", timing_s, "s");
  report.add("zone.explore_s", zone_s / p_zone, "s");
  report.add("zone.zones", counts[2] / p_zone, "count");
  report.add("zone.subsumed_ratio", counts[4] > 0 ? counts[3] / counts[4] : 0.0,
             "ratio");
  report.add("zone.discrete_explore_s", discrete_s / p_discrete, "s");
  report.add("zone.discrete_configs", counts[5] / p_discrete, "count");
  report.add("zone.discrete_layers", counts[6] / p_discrete, "count");
  report.add("serve.cold_request_s", cap.cold_request_s / cold_requests, "s");
  report.add("serve.compute_s", compute_s / cold_requests, "s");
  report.add("serve.warm_request_s", warm_request_s, "s");
  report.add("serve.roundtrip_overhead_s",
             cap.warm_rtt_s / warm_requests - warm_request_s, "s");
  report.add("serve.warm_cache_hits",
             static_cast<double>(cap.warm_hits) /
                 static_cast<double>(cap.warm_passes),
             "count");
  report.add("base.small_jobs_ratio", jobsn_s / jobs1_s, "ratio");
  report.add("obs.trace_overhead", traced_s / plain_s, "ratio");
  std::fprintf(stderr, "traced run: plain round %.3f s, traced round %.3f s\n",
               plain_s, traced_s);
  return report;
}

}  // namespace rtvbench
