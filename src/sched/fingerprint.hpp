// Shared 128-bit state fingerprinting for the search engines.
//
// Every engine (serial DFS, guided best-first, reachability, the
// parallel workers) keys its visited structure by the state's Zobrist
// digest instead of the full state: membership costs 16 bytes per state
// regardless of net size, and the collision probability over two
// independent 64-bit hashes is negligible against the state counts
// reachable in practice. The definitions used to be duplicated per
// engine translation unit; they live here once now, so the CAS visited
// table (sched/lockfree_table.hpp) and the hash-set engines provably
// agree on the key function.
#pragma once

#include <cstddef>
#include <cstdint>

#include "base/hash.hpp"
#include "tpn/state.hpp"

namespace ezrt::sched {

struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(Fingerprint, Fingerprint) = default;
};

struct FingerprintHash {
  std::size_t operator()(Fingerprint f) const noexcept {
    return hash_mix(f.a, f.b);
  }
};

/// The state's Zobrist digest: maintained incrementally by the firing
/// engine, recomputed densely for cacheless (reference-engine) states —
/// same function either way, so identical timed states always collide.
[[nodiscard]] inline Fingerprint fingerprint(const tpn::State& s) {
  const tpn::StateDigest d = s.digest();
  return Fingerprint{d.a, d.b};
}

/// Estimated heap footprint of a node-based hash container (libstdc++
/// layout: one pointer per bucket, nodes of payload + next pointer).
template <typename Container>
[[nodiscard]] std::uint64_t node_container_bytes(const Container& c,
                                                 std::size_t payload) {
  return static_cast<std::uint64_t>(c.bucket_count()) * sizeof(void*) +
         static_cast<std::uint64_t>(c.size()) * (payload + sizeof(void*));
}

}  // namespace ezrt::sched
