#pragma once

#include <span>

#include "campaign/thread_pool.h"

namespace tempriv::campaign {

/// KSG mutual-information estimator with the per-point ψ-term loop — the
/// embarrassingly-parallel part — fanned out over `pool` in fixed-size
/// chunks. Each chunk writes its points' terms into a disjoint slice of one
/// preallocated array and the reduction sums that array in original sample
/// order, so the result is bit-identical to the serial
/// infotheory::mutual_information_ksg (and to its brute-force test oracle)
/// for every thread count and chunking. Throws what the serial estimator
/// throws; a task exception propagates out of the future before any result
/// is produced.
double parallel_mutual_information_ksg(ThreadPool& pool,
                                       std::span<const double> xs,
                                       std::span<const double> zs,
                                       unsigned k = 3);

}  // namespace tempriv::campaign
