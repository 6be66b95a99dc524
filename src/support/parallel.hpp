// Process-wide parallel execution layer for the Monte-Carlo harness and
// the solver's hot loops.
//
// One lazily-initialized thread pool serves the whole process. Its width
// comes from, in priority order: set_threads() (the `--threads` CLI flag,
// io/cli_args.hpp), the LAMBMESH_THREADS environment variable, and
// std::thread::hardware_concurrency(). Width 1 is an exact serial
// fallback: parallel_for degenerates to one inline call on the calling
// thread, touching no locks and spawning nothing, so `--threads 1`
// reproduces the pre-parallel binaries instruction for instruction.
//
// Determinism contract (docs/PARALLELISM.md): parallel_for only hands out
// disjoint index ranges; callers keep results deterministic by writing to
// disjoint per-index slots and aggregating in index order afterwards, and
// by deriving any per-index RNG state from (seed, index) rather than from
// shared mutable generators. Under that discipline every result in the
// repo is bit-identical at any thread count.
//
// The pool reports through obs::MetricsRegistry: `parallel.tasks` and
// `parallel.jobs` counters, a `parallel.pool.threads` gauge, a
// `parallel.queue.depth` gauge, and `parallel.busy_seconds` /
// `parallel.idle_seconds` gauges (accumulated chunk-execution and
// worker-wait time; clocks are only read while metrics are enabled).
#pragma once

#include <cstdint>
#include <functional>

namespace lamb::par {

// Pool width the next parallel_for will use (>= 1). Resolving it
// initializes the pool.
int threads();

// Reconfigures the pool width; n <= 0 restores the LAMBMESH_THREADS /
// hardware_concurrency default. Blocks until the previous workers have
// drained their current chunks; call between parallel regions.
void set_threads(int n);

// True while the calling thread is executing a parallel_for chunk.
// Nested parallel_for calls run serially inline (the pool never waits on
// itself), so library code may parallelize unconditionally.
bool in_parallel_region();

// Runs chunk(b, e) over consecutive disjoint sub-ranges [b, e) covering
// [begin, end), each at most `grain` indices long (grain <= 0 picks
// ~4 chunks per pool thread). Chunks execute concurrently on the pool
// workers and the calling thread; the call returns once every chunk has
// finished. The first exception thrown by a chunk is rethrown here after
// the remaining chunks drain.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& chunk);

}  // namespace lamb::par
