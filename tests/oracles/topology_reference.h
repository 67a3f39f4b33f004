#pragma once

#include <cstddef>

#include "net/topology.h"
#include "sim/random.h"

namespace tempriv::oracles {

/// The pre-CSR reference: the O(n²) pairwise-distance builder
/// Topology::random_geometric replaced, with node 0 as the sink. Placement
/// loop and distance predicate are the expressions the production grid-hash
/// builder must match bit-for-bit (same draws, same edge set).
net::Topology brute_force_geometric(std::size_t n, double side, double radius,
                                    sim::RandomStream& rng);

}  // namespace tempriv::oracles
