// Per-thread free lists for coroutine frames (sim/task.hpp hooks these
// into every Task promise).
//
// The hot paths create one frame per message (activation coroutines) plus
// a handful per wait poll (progressOnce/progressPass/flush) — with the
// payload plane (net/payload.hpp) and the request arena
// (mpi/request_arena.hpp) in place, frames were the last steady-state
// allocation per message. Frames round up to a 64-byte granule and
// recycle through a per-thread bucket array; blocks freed on a different
// thread than they were allocated simply migrate to the freeing thread's
// cache (each cache is thread-local, so there is no sharing to race on —
// parallelFor sweeps run whole engines per worker thread).
#pragma once

#include <cstddef>

namespace dkf::sim {

void* frameAlloc(std::size_t bytes);
void frameFree(void* p, std::size_t bytes) noexcept;

}  // namespace dkf::sim
