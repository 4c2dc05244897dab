#ifndef D2STGNN_COMMON_THREAD_POOL_H_
#define D2STGNN_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>

// Shared execution layer: a lazily-initialized process-wide thread pool and
// a ParallelFor primitive the tensor kernels, data pipeline, and benches
// dispatch through.
//
// Determinism contract: ParallelFor splits [begin, end) into fixed chunks
// [begin + i*grain, begin + (i+1)*grain) that depend only on (begin, end,
// grain) — never on the thread count — and every chunk body observes one
// contiguous index range. Kernels that accumulate per chunk and combine
// partials in chunk order therefore produce bitwise-identical results at 1
// and N threads.

namespace d2stgnn {

/// Number of threads ParallelFor may use (including the calling thread).
/// Defaults to the D2STGNN_NUM_THREADS environment variable if set,
/// otherwise std::thread::hardware_concurrency().
int GetNumThreads();

/// Overrides the thread count (>= 1). Takes effect on the next ParallelFor;
/// existing workers are joined and the pool is rebuilt lazily.
void SetNumThreads(int num_threads);

/// Runs fn(chunk_begin, chunk_end) for every chunk of [begin, end) split at
/// multiples of `grain` (grain <= 0 picks a default of ~64 chunks). Chunks
/// are distributed over the shared pool; the calling thread participates.
/// Blocks until every chunk finished. The first exception thrown by a chunk
/// is rethrown on the calling thread after all chunks complete. Nested
/// calls (from inside a chunk body), single-chunk ranges and calls at one
/// configured thread run inline on the calling thread, with no pool
/// machinery; InParallelRegion() is restored afterwards.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// True while the current thread is executing a chunk body of a
/// ParallelFor (used to serialize nested parallelism).
bool InParallelRegion();

}  // namespace d2stgnn

#endif  // D2STGNN_COMMON_THREAD_POOL_H_
