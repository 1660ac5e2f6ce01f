// Output checks that do not trust the engine under test.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "rtv/ts/compose.hpp"

namespace rtvbench {

/// Walks `labels` through `comp`, the compose() of `item` with its choke
/// tracking, from the initial state and confirms the walk ends in a
/// violation of one of the item's properties: a bad state, a bad last firing, or a refused output (a
/// containment choke).  Returns "" on success, else what went wrong.
std::string replay_counterexample(const rtv::Composition& comp,
                                  const Item& item,
                                  const std::vector<std::string>& labels);

}  // namespace rtvbench
