#pragma once

#include <span>

namespace tempriv::infotheory::reference {

/// Brute-force reference implementations of the k-NN estimators.
///
/// These are the original O(n²)-scan estimators the sort-based fast paths
/// in infotheory/estimators.h replaced. They live on as test oracles only:
/// the property tests assert the fast paths (and the thread-pool KSG in
/// campaign/analysis.h) return *bit-identical* results on randomized
/// corpora, including exact duplicates and tied max-norm distances.

/// KSG algorithm 1 with a full O(n²) pairwise max-norm scan per point.
double mutual_information_ksg_brute(std::span<const double> xs,
                                    std::span<const double> zs,
                                    unsigned k = 3);

/// Kozachenko–Leonenko entropy with a full O(n) distance scan per point
/// (O(n²) total). Iterates points in sorted order — the same summation
/// order as the fast path — so agreement is exact, not just close.
double entropy_knn_brute(std::span<const double> samples, unsigned k = 3);

}  // namespace tempriv::infotheory::reference
