// Reproduction of the Section 3.2 scaling claim:
//
//   "The verification becomes exponentially more costly as n increases ...
//    in practice n cannot go beyond 2 stages.  In order to overcome the
//    complexity, the verification of longer pipelines must be carried out
//    using abstractions."
//
// Series 1: the flat composition IN || I1 || ... || In || OUT — composed
//           state count (capped) per n.
// Series 2: the assume-guarantee decomposition — constant-size obligations
//           (experiments 2-4) independent of n, proving every n >= 1.
#include <chrono>
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

int main() {
  std::printf("Flat verification: composed untimed state count vs n\n");
  std::printf("%4s %14s %12s %10s\n", "n", "states", "truncated?", "seconds");
  const std::size_t cap = 1'500'000;
  bool blewup = false;
  for (int n = 1; n <= 3; ++n) {
    const auto t0 = std::chrono::steady_clock::now();
    const ModuleSet set = flat_pipeline(n);
    ComposeOptions opts;
    opts.max_states = cap;
    const Composition c = compose(set.ptrs, opts);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("%4d %14zu %12s %10.2f\n", n, c.ts.num_states(),
                c.truncated ? "yes" : "no", secs);
    if (c.truncated) {
      blewup = true;
      break;  // the paper's point: beyond this, flat verification is out
    }
  }
  std::printf("\nflat blow-up beyond ~1-2 stages: %s (paper: \"in practice n "
              "cannot go beyond 2 stages\")\n\n",
              blewup ? "reproduced" : "NOT reproduced");

  std::printf("Assume-guarantee decomposition (n-independent obligations):\n");
  const Suite table1 = table1_suite();
  double total = 0;
  bool all = true;
  for (const Obligation& ob : table1.obligations()) {
    const EngineResult r = engine_registry().find("refine")->run(ob.request());
    std::printf("  %-42s %-14s %.3f s\n", ob.name.c_str(), to_string(r.verdict),
                r.seconds);
    total += r.seconds;
    all = all && r.verified();
  }
  std::printf("  total: %.3f s — proves IN || I^n || OUT |= S for every n >= 1\n",
              total);
  std::printf("  (experiments 3 and 4 are the induction: base and step)\n");
  return all && blewup ? 0 : 1;
}
