// Ablation: the refinement engine's two pruning mechanisms.
//
//   * ordering pairs, justified per state by the enabling-instant matrix
//     (the operational form of the paper's relative timing constraints),
//   * exact window bans (one trace pattern at a time).
//
// With the ordering rule disabled, every failure interleaving must be
// banned separately — the iteration count explodes, which is why the CES
// generalisation matters (DESIGN.md "enabling-compatible product").
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

/// The "refine" engine's run with the structural rule on ("pairs") or off
/// ("windows").
void report(const char* sys, const char* mode, const EngineRequest& req,
            bool structural_rule) {
  const EngineResult r = refine_run(req, {.structural_rule = structural_rule});
  std::printf("%-28s %10s %14s %12d %10.3f\n", sys, mode, to_string(r.verdict),
              std::get<RefineEngineStats>(r.stats).refinements, r.seconds);
}

}  // namespace

int main() {
  std::printf("%-28s %10s %14s %12s %10s\n", "system", "mode", "verdict",
              "refinements", "seconds");

  // Intro example: small enough for both modes.
  {
    const Module sys = gallery::intro_example();
    const Module mon = gallery::order_monitor("g", "d");
    const InvariantProperty bad("g before d", {{"fail", true}});
    const EngineRequest req{.modules = {&sys, &mon}, .properties = {&bad}};
    report("intro example", "pairs", req, true);
    report("intro example", "windows", req, false);
  }

  // Experiments 2 (containment of a transistor-level stage) and 5, in
  // both modes; window-only mode diverges, so it is capped.
  constexpr std::size_t kWindowCap = 60;
  const Suite table1 = table1_suite();
  for (const auto& [row, label] :
       {std::pair{1, "exp2: Ain||I||OUT <= Aout"}, {4, "exp5: IN||I||OUT |= S"}}) {
    EngineRequest req = table1.obligations()[row].request();
    report(label, "pairs", req, true);
    req.max_refinements = kWindowCap;
    report(label, "windows", req, false);
    if (row == 1)
      std::printf("  (window-only mode capped at %zu iterations: each failure\n"
                  "   interleaving needs its own ban — the paper's CES-based\n"
                  "   generalisation is what makes the flow converge)\n",
                  kWindowCap);
  }
  return 0;
}
