// Consistent-hash ring for backend selection.
//
// Each node (a backend, identified by its endpoint spelling) contributes
// `vnodes` points on a 64-bit ring; a request hashes to a point and is
// owned by the first node point at or clockwise of it. Properties the
// router relies on:
//
//   * Determinism — the ring is a pure function of (labels, vnodes), so
//     every router instance over the same fleet routes identically.
//   * Minimal remap — removing a node only moves the keys that node
//     owned; all other (model, session) pins survive membership churn.
//   * Fallback order — pick_n() walks clockwise collecting distinct
//     nodes, giving each key a stable candidate order: the router tries
//     candidate 0, reroutes to 1 on failure, hedges to 1, and so on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qsnc::router {

/// Routing hash of a (model, key) pair — FNV-1a over both strings with a
/// SplitMix64 finalizer so nearby keys land far apart on the ring.
uint64_t route_hash(const std::string& model, const std::string& key);

class HashRing {
 public:
  /// `labels` identify the nodes (backend endpoint spellings); ring
  /// points hash the label, not the index, so reordering or removing
  /// entries never remaps keys owned by surviving nodes. Throws
  /// std::invalid_argument on an empty label set or vnodes < 1.
  HashRing(const std::vector<std::string>& labels, int vnodes);

  /// Index (into the constructor's label vector) owning `hash`.
  size_t pick(uint64_t hash) const;

  /// Up to `n` distinct node indices in clockwise fallback order,
  /// starting with the owner. n >= node count returns every node.
  std::vector<size_t> pick_n(uint64_t hash, size_t n) const;

 private:
  struct Point {
    uint64_t position;
    size_t node;
  };
  std::vector<Point> ring_;  // sorted by position
  size_t num_nodes_;
};

}  // namespace qsnc::router
