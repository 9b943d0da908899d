// Minimal executor seam between the layer-0 prefix-partition engine and
// the pet::runtime thread pool.
//
// common sits below runtime in the module graph (src/CMakeLists.txt), so
// radix.cpp cannot name ThreadPool.  Instead the chunked partition takes
// this abstract chunked-for-each; pet::runtime implements it over the build
// pool (src/runtime/parallel_exec.hpp) and registers it process-wide, and
// SortedPetChannel picks it up at build time.  A null executor (the
// default) means every build runs serially — exactly the pre-parallel code
// path.
//
// Determinism contract: run() must invoke fn over the fixed partition of
// [0, n) into `workers()` contiguous chunks, chunk w = [w*n/W, (w+1)*n/W),
// and return only after every chunk completed.  Chunk boundaries are a
// pure function of (n, W); callers that need byte-identical output at any
// worker count must not let W leak into results (the prefix partition
// doesn't: bucket bounds and bucket multisets are functions of the keys,
// see docs/performance.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace pet {

class ParallelFor {
 public:
  virtual ~ParallelFor() = default;

  /// Number of chunks run() partitions work into (>= 1).
  [[nodiscard]] virtual unsigned workers() const noexcept = 0;

  /// Invoke fn(chunk_index, begin, end) for every chunk of [0, n); blocks
  /// until all chunks completed.  fn must be safe to call concurrently on
  /// distinct chunks.  Exceptions thrown by fn propagate to the caller.
  virtual void run(std::size_t n,
                   const std::function<void(unsigned, std::size_t,
                                            std::size_t)>& fn) = 0;
};

/// Chunk boundary helper shared by implementations and the partition:
/// chunk w of [0, n) split W ways is [chunk_begin(n,W,w), chunk_begin(n,W,w+1)).
[[nodiscard]] constexpr std::size_t chunk_begin(std::size_t n, unsigned total,
                                                unsigned index) noexcept {
  return n / total * index + std::min<std::size_t>(n % total, index);
}

/// Process-wide executor used for channel builds; nullptr (the default)
/// keeps every build serial.  Registered by
/// runtime::configure_build_parallelism; the pointer must outlive its
/// registration.
[[nodiscard]] ParallelFor* build_parallel_for() noexcept;
void set_build_parallel_for(ParallelFor* executor) noexcept;

}  // namespace pet
