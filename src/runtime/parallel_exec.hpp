// Pool-backed implementation of the pet::ParallelFor build-executor seam
// (src/common/parallel.hpp): the bridge that lets the layer-0 prefix
// partition run on a pet::runtime thread pool without common ever linking
// runtime.
//
// The build pool is separate from the trial pool, and the executor reports
// a single worker whenever the calling thread is itself a pool worker
// (ThreadPool::on_worker_thread), so per-trial rebuilds issued from inside
// a parallel sweep stay serial — cross-trial parallelism already owns the
// cores there, and a build that blocked on its own pool's queue would be
// pure oversubscription.  Main-thread builds (petsim single sweeps, arena
// warm-up, the ablation_scaling bench, petd population loads) fan out.
//
// Determinism: the executor only ever changes *where* chunk work runs; the
// chunk partition is the fixed chunk_begin split, and the prefix
// partition's bucket bounds and bucket multisets are functions of the keys
// alone, so artifacts are byte-identical at any --threads
// (docs/performance.md).
#pragma once

#include "common/parallel.hpp"

namespace pet::runtime {

/// Create (or resize) the process-wide build pool and register it as
/// pet::build_parallel_for().  `threads` == 0 picks hardware concurrency;
/// <= 1 unregisters the executor, making every build serial again.  Not
/// thread-safe against concurrent builds — call it from setup code, next
/// to TrialRunner::configure.
void configure_build_parallelism(unsigned threads);

/// Workers the registered build executor fans out to (1 when serial).
[[nodiscard]] unsigned build_parallelism() noexcept;

}  // namespace pet::runtime
