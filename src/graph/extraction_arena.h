// Per-thread scratch arena for enclosing-subgraph extraction.
//
// The naive extractor (oracle/graph/subgraph_naive.h, a correctness oracle
// outside the library) allocates fresh unordered_maps and queues for every
// target link; with thousands of links per circuit that is the dominant
// cost of the sampling stage. The arena replaces every per-link container
// with flat arrays sized once to the circuit:
//
//   * visited/dist arrays are EPOCH-STAMPED: an entry is valid only when its
//     stamp equals the arena's current epoch, so "clearing" between links is
//     a single counter increment, not an O(n) wipe;
//   * the global->local node remap is a flat array (same stamping trick)
//     instead of an unordered_map;
//   * the BFS work queue is a fixed ring buffer of capacity num_nodes — a
//     single-source BFS enqueues each node at most once, so head/tail never
//     wrap and push/pop are single stores.
//
// After the first extraction on a given circuit size, extraction performs no
// allocations beyond the returned Subgraph (capacity of the sort/BFS buffers
// is reused). Each worker thread owns one arena (thread_local in
// subgraph.cpp); the extraction result never depends on arena history, so
// parallel extraction stays bit-identical at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/circuit_graph.h"

namespace muxlink::graph {

struct ExtractionArena {
  // Valid-iff-stamp-equals-epoch state, indexed by global NodeId. Two
  // distance fields are kept because DRNL needs the BFS trees of both
  // targets simultaneously.
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stamp_u, stamp_v, stamp_local;
  std::vector<std::int32_t> dist_u, dist_v;
  std::vector<NodeId> local_id;  // global -> local index, guarded by stamp_local

  // Ring-buffer BFS queue over global nodes (never wraps; see header note).
  std::vector<NodeId> queue;

  // Nodes reached by each BFS, in visit order (source included). Bounds the
  // member-collection pass to the touched set instead of the whole circuit.
  std::vector<NodeId> touched_u, touched_v;

  // (closeness, node) sort buffer for deterministic member ordering.
  std::vector<std::pair<int, NodeId>> rest;

  // Local-BFS scratch for DRNL, sized to the extracted subgraph.
  std::vector<int> ldist_u, ldist_v;
  std::vector<NodeId> lqueue;

  // Grows the stamped arrays to cover `num_nodes` globals and opens a fresh
  // epoch. O(1) amortized: growth zero-fills only new slots, and the epoch
  // bump invalidates all stale entries without touching them. On the (one in
  // 2^32) epoch wrap, every stamp is reset once so no stale entry can alias
  // the new epoch.
  void begin(std::size_t num_nodes) {
    if (stamp_u.size() < num_nodes) {
      stamp_u.resize(num_nodes, 0);
      stamp_v.resize(num_nodes, 0);
      stamp_local.resize(num_nodes, 0);
      dist_u.resize(num_nodes);
      dist_v.resize(num_nodes);
      local_id.resize(num_nodes);
      queue.resize(num_nodes);
    }
    if (++epoch == 0) {
      std::fill(stamp_u.begin(), stamp_u.end(), 0u);
      std::fill(stamp_v.begin(), stamp_v.end(), 0u);
      std::fill(stamp_local.begin(), stamp_local.end(), 0u);
      epoch = 1;
    }
    touched_u.clear();
    touched_v.clear();
    rest.clear();
  }
};

}  // namespace muxlink::graph
