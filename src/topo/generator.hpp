// Synthetic Internet-like AS topology generator.
//
// Substitute for the UCLA IRL measured topology the paper evaluates on
// (Table I: 44,340 ASes, 109,360 links, 69% provider/customer, 31% peering).
// The generator reproduces the structural properties MIFO's results depend
// on: a tier-1 peering clique, a transit hierarchy with preferential
// attachment (power-law degrees), multihomed stubs, high-peering content
// providers, an acyclic provider/customer hierarchy, and Table I's
// P/C : peering mix.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "topo/as_graph.hpp"

namespace mifo::topo {

struct GeneratorParams {
  std::size_t num_ases = 4000;
  /// Size of the tier-1 clique (fully peered).
  std::size_t num_tier1 = 12;
  std::uint64_t seed = 1;
};

/// Generates a topology with the invariants documented above. The result is
/// connected and its provider/customer digraph is acyclic by construction
/// (providers are always drawn from earlier-created ASes).
[[nodiscard]] AsGraph generate_topology(const GeneratorParams& params);

}  // namespace mifo::topo
