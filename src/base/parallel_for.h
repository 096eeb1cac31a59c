// Deadlock-free data-parallel helper over ThreadPool: the calling thread
// fans a fixed set of independent chunks across the pool *and participates
// itself*. Helpers are recruited with the non-blocking TrySubmit, and
// chunks are handed out by an atomic claim counter, so
//
//  * a full queue or a shut-down pool only lowers the effective
//    parallelism (the caller runs the unclaimed chunks inline);
//  * it is safe to call from one of the pool's own workers — the caller
//    never blocks waiting for a task that might be queued behind it, only
//    for chunks that are actively executing on some thread;
//  * nesting (a chunk body that itself calls ParallelChunks on the same
//    pool) is safe for the same reason.
//
// This is the fan-out primitive of the parallel LP construction pipeline
// (pricing slices, cost tables, row samplers).

#ifndef GEOPRIV_BASE_PARALLEL_FOR_H_
#define GEOPRIV_BASE_PARALLEL_FOR_H_

#include <functional>

namespace geopriv {

class ThreadPool;

// Runs fn(chunk) exactly once for every chunk in [0, num_chunks), using up
// to `parallelism` threads in total: the calling thread plus helpers drawn
// from `pool`. Returns only after every chunk has finished. With a null
// pool or parallelism <= 1 the chunks run inline, in order, on the calling
// thread — callers can rely on that for a bit-exact serial reference.
//
// Chunk bodies must be independent (no chunk may wait on another) and must
// not throw. `fn` is invoked concurrently from several threads; writes to
// shared state must be disjoint per chunk or synchronized by the caller.
void ParallelChunks(ThreadPool* pool, int parallelism, int num_chunks,
                    const std::function<void(int chunk)>& fn);

// Effective total parallelism for a caller-supplied pool:
// pool->num_threads() + 1 (every pool worker plus the calling thread), or 1
// without a pool.
int EffectiveParallelism(const ThreadPool* pool);

}  // namespace geopriv

#endif  // GEOPRIV_BASE_PARALLEL_FOR_H_
