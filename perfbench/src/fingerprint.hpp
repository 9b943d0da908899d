// Host and build fingerprint stamped on every result, so that runs are only
// compared with runs of the same kind of host and build.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One-line JSON object: cpu model, nproc, SIMD tiers (active and
/// detected), compiler, build type, and the petd flags of this run.
[[nodiscard]] std::string fingerprint_json(
    const std::vector<std::string>& petd_flags);

}  // namespace perfbench
