// The original hash-map link-compaction max–min solver, kept beside the
// tests as the differential oracle for sim::max_min_rates: the library
// solver must return identical rates on every instance.
#pragma once

#include <vector>

#include "sim/maxmin.hpp"

namespace mifo::sim {

/// Max–min fair rates by progressive filling: every round scans every used
/// link; a fresh hash map and per-link vectors per call.
[[nodiscard]] std::vector<double> max_min_rates_reference(
    const MaxMinInput& in);

}  // namespace mifo::sim
