#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>

#include <unistd.h>

#include "checks.hpp"
#include "rtv/obs/metrics.hpp"

namespace rtvbench {

namespace {

using rtv::Verdict;

constexpr std::array<const char*, 3> kEngines = {"refine", "zone", "discrete"};

WorkloadSpec make_spec(const Options& o) {
  WorkloadSpec s;
  s.name = o.workload;
  if (o.workload == "table1") {
    s.passes = {1, 10, 1};
    s.cold_passes = 3;
    s.warm_passes = 10;
    s.serve_engines = {"zone"};
  } else if (o.workload == "slack") {
    s.passes = {3, 4, 1};
    s.cold_passes = 2;
    s.warm_passes = 5;
    s.serve_engines = {"zone"};
  } else if (o.workload == "service") {
    s.passes = {3, 3, 3};
    s.cold_passes = 1;
    s.warm_passes = 3;
    s.serve_engines = {"refine", "zone", "discrete"};
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.small) {
    s.passes = {1, 1, 1};
    s.cold_passes = 1;
    s.warm_passes = 1;
    s.setups = 1;
  }
  return s;
}

ItemSet build_items(const Options& o) {
  if (o.workload == "table1") return table1_items();
  if (o.workload == "slack") return slack_items(o.small);
  return service_items(o.seed, pool_size(o.small));
}

bool has_constraint(const rtv::RefineEngineStats& st, const std::string& c) {
  return std::find(st.constraints.begin(), st.constraints.end(), c) !=
         st.constraints.end();
}

}  // namespace

Runner::Runner(const Options& options, Calibration* calibration)
    : options_(options), calibration_(calibration), spec_(make_spec(options)) {
  socket_path_ = options_.work_dir + "/rtvbench-" +
                 std::to_string(::getpid()) + ".sock";
}

Runner::~Runner() {
  client_.close();
  if (server_) server_->stop();
}

double Runner::setup() {
  client_.close();
  if (server_) server_->stop();
  server_.reset();
  set_ = ItemSet{};
  requests_.clear();

  const double t0 = now_s();
  set_ = build_items(options_);
  for (const Item& item : set_.items) {
    rtv::serve::ServeRequest req;
    req.kind = rtv::serve::RequestKind::kVerify;
    req.engines = spec_.serve_engines;
    req.obligations.push_back(item.wire);
    requests_.push_back(std::move(req));
  }
  rtv::serve::ServerOptions so;
  so.socket_path = socket_path_;
  so.jobs = 1;
  so.max_cache_entries = 2 * set_.items.size() + 16;
  server_ = std::make_unique<rtv::serve::Server>(so);
  server_->start();
  client_.connect(socket_path_);
  const double t1 = now_s();

  // The seed fixes the order of the obligations in every pass.
  order_.resize(set_.items.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::mt19937_64 rng(options_.seed);
  std::shuffle(order_.begin(), order_.end(), rng);
  compositions_.assign(set_.items.size(), std::nullopt);
  return t1 - t0;
}

const rtv::Composition& Runner::composition(std::size_t item) {
  if (!compositions_[item]) {
    rtv::ComposeOptions co;
    co.track_chokes = set_.items[item].track_chokes;
    compositions_[item] = rtv::compose(set_.items[item].modules, co);
  }
  return *compositions_[item];
}

/// The registry metrics a traced round splits by phase.  References stay
/// valid for the registry's lifetime.
struct Meters {
  rtv::obs::Counter& iterations;
  rtv::obs::Counter& refine_states;
  rtv::obs::Counter& zones;
  rtv::obs::Counter& subsumed;
  rtv::obs::Counter& subsumption_checks;
  rtv::obs::Counter& discrete_configs;
  rtv::obs::Counter& discrete_layers;
  rtv::obs::Histogram& request_s;
  rtv::obs::Histogram& queue_wait_s;

  static Meters& get() {
    rtv::obs::Registry& r = rtv::obs::Registry::global();
    const auto states = [&](const char* engine) -> rtv::obs::Counter& {
      return r.counter("rtv_engine_states_explored_total",
                       std::string("engine=\"") + engine + '"');
    };
    const auto tb = rtv::obs::Histogram::time_buckets();
    static Meters m{r.counter("rtv_engine_refinement_iterations_total"),
                    states("refine"),
                    states("zone"),
                    r.counter("rtv_zone_subsumed_total"),
                    r.counter("rtv_zone_subsumption_checks_total"),
                    states("discrete"),
                    r.counter("rtv_engine_frontier_layers_total",
                              "engine=\"discrete\""),
                    r.histogram("rtv_serve_request_seconds", tb),
                    r.histogram("rtv_suite_queue_wait_seconds", tb)};
    return m;
  }
  std::array<double, 7> engine_counts() const {
    const rtv::obs::Counter* c[] = {&iterations, &refine_states, &zones,
                                    &subsumed, &subsumption_checks,
                                    &discrete_configs, &discrete_layers};
    std::array<double, 7> out{};
    for (std::size_t k = 0; k < out.size(); ++k)
      out[k] = static_cast<double>(c[k]->value());
    return out;
  }
};

RoundFigures Runner::round(Report& report, RoundCapture* capture) {
  RoundFigures fig;
  const std::size_t n = set_.items.size();
  Meters* meters = capture ? &Meters::get() : nullptr;
  // The round goes obligation by obligation: every engine's passes, then
  // the cold and warm requests.  Each figure then sums samples spread over
  // the whole round, which averages out the host's drift.
  std::array<std::vector<double>, 3> times;
  std::array<std::vector<std::vector<rtv::EngineResult>>, 3> passes;
  for (std::size_t e = 0; e < kEngines.size(); ++e) {
    times[e].assign(spec_.passes[e], 0.0);
    passes[e].assign(spec_.passes[e], std::vector<rtv::EngineResult>(n));
  }
  std::vector<double> cold(spec_.cold_passes, 0.0), warm(spec_.warm_passes, 0.0);
  std::vector<std::uint64_t> cold_misses(spec_.cold_passes, 0),
      warm_hits(spec_.warm_passes, 0);
  for (std::size_t i : order_) {
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
      const rtv::Engine* engine = rtv::engine_registry().find(kEngines[e]);
      for (int p = 0; p < spec_.passes[e]; ++p) {
        if (calibration_) calibration_->tick();
        rtv::EngineResult& r = passes[e][p][i];
        const auto before = meters ? meters->engine_counts() : std::array<double, 7>{};
        const double t0 = now_s();
        try {
          r = run_engine(*engine, set_.items[i]);
        } catch (const std::exception& ex) {
          r.verdict = Verdict::kInconclusive;
          r.truncated_reason = rtv::stop_reason::kEngineError;
          r.message = ex.what();
        }
        times[e][p] += now_s() - t0;
        if (meters) {
          const auto after = meters->engine_counts();
          for (std::size_t k = 0; k < after.size(); ++k)
            capture->engine_counts[k] += after[k] - before[k];
        }
      }
    }

    rtv::serve::ServeResponse first_cold;
    for (int p = 0; p < spec_.cold_passes; ++p) {
      server_->cache().clear();
      const Request r = request(i, meters);
      cold[p] += r.seconds;
      if (r.computed == 1 && r.hits == 0) ++cold_misses[p];
      if (capture) {
        capture->cold_request_s += r.daemon_s;
        capture->cold_requests += 1;
        capture->queue_wait_s += r.queue_wait_s;
        capture->queue_waits += r.queue_waits;
      }
      check_cold(report, i, r.response, passes);
      if (p == 0) first_cold = r.response;
    }
    for (int p = 0; p < spec_.warm_passes; ++p) {
      const Request r = request(i, meters);
      warm[p] += r.seconds;
      warm_hits[p] += r.hits;
      if (capture) {
        capture->warm_request_s += r.daemon_s;
        capture->warm_requests += 1;
        capture->warm_rtt_s += r.seconds;
        capture->warm_hits += r.hits;
      }
      check_warm(report, i, r.response, first_cold);
    }
  }

  for (std::size_t e = 0; e < kEngines.size(); ++e) {
    fig.engine_s[e] = median(times[e]);
    // Every pass is checked; the first one also feeds the cold checks.
    for (int p = 1; p < spec_.passes[e]; ++p) {
      for (std::size_t i = 0; i < n; ++i)
        report.op(passes[e][p][i].verdict == passes[e][0][i].verdict,
                  set_.items[i].name + " [" + kEngines[e] +
                      "]: verdict changed between passes");
    }
    direct_[e] = std::move(passes[e][0]);
    if (n <= 32) {
      for (std::size_t i = 0; i < n; ++i)
        std::fprintf(stderr, "  %-48s %-8s %-8s %.4f s\n",
                     set_.items[i].name.c_str(), kEngines[e],
                     rtv::to_string(direct_[e][i].verdict),
                     direct_[e][i].seconds);
    }
  }
  check_direct(report, direct_);
  for (std::uint64_t misses : cold_misses)
    report.check(misses == n, "cold pass: " + std::to_string(n - misses) +
                                  " requests were not computed misses");
  for (std::uint64_t hits : warm_hits)
    report.check(hits == n, "warm pass: the daemon's hit counter grew by " +
                                std::to_string(hits) + ", not " +
                                std::to_string(n));
  if (capture) capture->warm_passes += static_cast<std::size_t>(spec_.warm_passes);
  fig.cold_rps = static_cast<double>(n) / median(cold);
  fig.warm_rps = static_cast<double>(n) / median(warm);
  return fig;
}

Runner::Request Runner::request(std::size_t i, const Meters* meters) {
  if (calibration_) calibration_->tick();
  Request r;
  const rtv::serve::ServeStats before = server_->stats();
  const double h_sum = meters ? meters->request_s.sum() : 0.0;
  const double q_sum = meters ? meters->queue_wait_s.sum() : 0.0;
  const std::uint64_t q_count = meters ? meters->queue_wait_s.count() : 0;
  const double t0 = now_s();
  r.response = client_.call(requests_[i]);
  r.seconds = now_s() - t0;
  const rtv::serve::ServeStats after = server_->stats();
  r.computed = after.computed - before.computed;
  r.hits = after.cache_hits - before.cache_hits;
  if (meters) {
    // The daemon observes its request histogram before it answers.
    r.daemon_s = meters->request_s.sum() - h_sum;
    r.queue_wait_s = meters->queue_wait_s.sum() - q_sum;
    r.queue_waits = meters->queue_wait_s.count() - q_count;
  }
  return r;
}

void Runner::check_cold(
    Report& report, std::size_t i, const rtv::serve::ServeResponse& resp,
    const std::array<std::vector<std::vector<rtv::EngineResult>>, 3>& passes) {
  // One record per requested engine, computed for this request, with the
  // verdict of a direct Engine::run outside the daemon.
  std::string why;
  if (!resp.ok) {
    why = "request failed: " + resp.error;
  } else if (resp.report.records.size() != spec_.serve_engines.size()) {
    why = "wrong record count";
  } else {
    for (const rtv::SuiteRecord& rec : resp.report.records) {
      const auto e = std::find(kEngines.begin(), kEngines.end(), rec.engine) -
                     kEngines.begin();
      if (e == static_cast<long>(kEngines.size()))
        why = "unknown engine " + rec.engine;
      else if (rec.cached)
        why = "cold answer flagged cached";
      else if (rec.result.verdict != passes[e][0][i].verdict)
        why = rec.engine + " answered " + rtv::to_string(rec.result.verdict) +
              ", a direct run " + rtv::to_string(passes[e][0][i].verdict);
    }
  }
  report.op(why.empty(), set_.items[i].name + " (cold request): " + why);
}

void Runner::check_warm(Report& report, std::size_t i,
                        const rtv::serve::ServeResponse& warm,
                        const rtv::serve::ServeResponse& cold) {
  // Warm answers equal the cold ones and are flagged cached.
  bool same = warm.ok && cold.ok &&
              warm.report.records.size() == cold.report.records.size();
  for (std::size_t r = 0; same && r < warm.report.records.size(); ++r) {
    const rtv::SuiteRecord& w = warm.report.records[r];
    const rtv::SuiteRecord& c = cold.report.records[r];
    same = w.cached && w.engine == c.engine &&
           w.result.verdict == c.result.verdict &&
           w.result.trace_labels == c.result.trace_labels;
  }
  report.op(same, set_.items[i].name +
                      " (warm request): differs from the cold answer or is "
                      "not flagged cached");
}

void Runner::check_direct(
    Report& report, const std::array<std::vector<rtv::EngineResult>, 3>& r) {
  const std::size_t n = set_.items.size();
  const std::string& w = spec_.name;
  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = set_.items[i];
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
      const rtv::EngineResult& res = r[e][i];
      const std::string who = item.name + " [" + kEngines[e] + "]: ";
      const std::string got = std::string(rtv::to_string(res.verdict)) +
                              (res.message.empty() ? "" : " (" + res.message +
                                                              ")");
      if (w == "table1") {
        // Every Table 1 row verifies in the paper.
        report.op(res.verdict == Verdict::kVerified, who + "expected VERIFIED, got " + got);
      } else if (w == "slack") {
        // A delay past the competing event's lower bound breaks the
        // paper's ordering: every engine must find the violation, and its
        // counterexample must replay through the composed graph.
        std::string why;
        if (res.verdict != Verdict::kViolated)
          why = "expected VIOLATED, got " + got;
        else
          why = replay_counterexample(composition(i), item, res.trace_labels);
        report.op(why.empty(), who + why);
      } else {
        // The pool has no reference verdicts: the three engines must
        // decide and agree.
        const bool agree = r[0][i].verdict == r[1][i].verdict &&
                           r[1][i].verdict == r[2][i].verdict;
        std::string why;
        if (res.inconclusive())
          why = "undecided: " + got;
        else if (!agree)
          why = std::string("engines disagree: refine ") +
                rtv::to_string(r[0][i].verdict) + ", zone " +
                rtv::to_string(r[1][i].verdict) + ", discrete " +
                rtv::to_string(r[2][i].verdict);
        report.op(why.empty(), who + why);
      }
    }
  }
  if (w != "table1") return;

  // Refinement counts and Fig. 13 constraints: experiment 1 is untimed,
  // experiments 2-5 need timing; experiment 5 derives (b) and (c).
  for (std::size_t i = 0; i < n; ++i) {
    const auto* st = std::get_if<rtv::RefineEngineStats>(&r[0][i].stats);
    const Item& item = set_.items[i];
    if (!st) {
      report.check(false, item.name + ": refine returned no statistics");
      continue;
    }
    if (item.name.rfind("1.", 0) == 0)
      report.check(st->refinements == 0,
                   item.name + ": expected 0 refinements, got " +
                       std::to_string(st->refinements));
    else
      report.check(st->refinements >= 1,
                   item.name + ": expected at least 1 refinement");
    if (item.name.rfind("5.", 0) == 0) {
      report.check(has_constraint(*st, "I1.Z+ before A1+"),
                   "experiment 5 lacks Fig. 13 (b) I1.Z+ before A1+");
      report.check(has_constraint(*st, "I1.Y- before I1.CLKE-"),
                   "experiment 5 lacks Fig. 13 (c) I1.Y- before I1.CLKE-");
    }
  }
  report.check(n == 5, "Table 1 has five obligations");
}

}  // namespace rtvbench
