// Persistent thread pool behind a fork-join parallel_for.
//
// Design (pthreadpool-style, cf. NNPACK): one process-wide pool of parked
// worker threads and one job slot. parallel_for publishes its job in the
// slot and wakes the workers; every thread, the caller included, claims
// the next grain-sized chunk from one atomic index until none are left.
// Idle workers park on a condition variable; there is no spinning.
//
// Determinism contract: chunk boundaries depend only on (begin, end,
// grain) — never on the thread count — so a kernel whose chunks write
// disjoint outputs (or that reduces per-chunk partials in fixed order)
// produces bit-identical results at 1, 2, or N threads.
//
// Serial guarantees: fn(begin, end) runs inline on the caller, as the one
// chunk of a valid partition, when the pool has <= 1 thread, when the
// range fits one grain chunk, when the call is nested inside a running
// chunk, and when another thread's job holds the pool (contention).
//
// Sizing: the pool starts lazily with QSNC_THREADS (env) threads when set,
// else std::thread::hardware_concurrency(); tools expose the same knob as
// a --threads flag via set_num_threads().
#pragma once

#include <cstdint>
#include <functional>

namespace qsnc::util {

/// Invokes fn(chunk_begin, chunk_end) over a partition of [begin, end)
/// into chunks of at most `grain` indices (last chunk may be short).
/// Blocks until every chunk ran; the first exception thrown by any chunk
/// is rethrown here after the job drains. fn must tolerate any
/// interleaving of chunks across threads. Throws std::invalid_argument
/// when grain < 1.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

/// Current logical thread count of the pool (caller + workers).
int num_threads();

/// Re-sizes the pool to n threads, clamped to [1, 512] (joins workers,
/// restarts). Waits for an in-flight job; must not be called from inside
/// a chunk.
void set_num_threads(int n);

/// Pool size from the environment: QSNC_THREADS when set (clamped to
/// [1, 512]), else hardware_concurrency(), else 1.
int default_threads();

/// True while the calling thread is executing a parallel_for chunk (used
/// to run nested parallelism inline).
bool in_parallel_region();

}  // namespace qsnc::util
