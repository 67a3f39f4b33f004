#pragma once

#include <string>
#include <vector>

#include "campaign/sweeps.h"

namespace tempriv::campaign {

/// Every name make_named_sweep resolves: the paper campaign's named_sweeps()
/// and the other ablations, in display order. A sweep added to
/// make_named_sweep is added here, so that it gets a golden and a shard check.
inline std::vector<std::string> all_named_sweeps() {
  std::vector<std::string> names = named_sweeps();
  for (const char* ablation :
       {"victim", "decomposition", "trunk", "adversaries", "traffic"}) {
    names.emplace_back(ablation);
  }
  return names;
}

}  // namespace tempriv::campaign
