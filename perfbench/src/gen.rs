//! The benchmark's own input generators.
//!
//! Every input is derived from the run's `--seed` through these functions,
//! and the program under test only ever sees their output: it is never asked
//! to generate its own inputs, so a change to the program's generators cannot
//! change what the benchmark measures.

use dual_primal_matching::graph::{Edge, Graph, GraphUpdate, VertexId};
use rand::prelude::*;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Derives an independent generator for one purpose (`stream`) of a run.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)))
}

/// SplitMix64 finalizer: a stable 64-bit mix of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A weight uniform in `[1, 10)`.
pub fn weight(rng: &mut StdRng) -> f64 {
    1.0 + 9.0 * rng.gen::<f64>()
}

/// `m` distinct uniformly random edges over `n` vertices with weights in
/// `[1, 10)`, in generation order (edge id = position).
pub fn gnm_edges(n: usize, m: usize, rng: &mut StdRng) -> Vec<Edge> {
    assert!(n >= 2 && m <= n * (n - 1) / 2, "gnm({n}, {m}) has no simple graph");
    let mut seen = HashSet::with_capacity(2 * m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push(Edge::new(u, v, weight(rng)));
        }
    }
    edges
}

/// Builds the program's graph type from generated edges (ids follow order).
pub fn graph_of(n: usize, edges: &[Edge]) -> Graph {
    Graph::from_edges(n, edges.iter().copied())
}

/// The benchmark's model of one dynamic session: the live edges by stable
/// overlay id, in arrival order, so the oldest can slide out of the window.
#[derive(Clone, Debug)]
pub struct WindowModel {
    pub n: usize,
    /// Live edges by stable id (ids are assigned in arrival order).
    pub live: BTreeMap<usize, Edge>,
    order: VecDeque<usize>,
    next_id: usize,
}

impl WindowModel {
    /// A window holding the base edges with ids `0..base.len()`.
    pub fn new(n: usize, base: &[Edge]) -> Self {
        WindowModel {
            n,
            live: base.iter().copied().enumerate().collect(),
            order: (0..base.len()).collect(),
            next_id: base.len(),
        }
    }

    /// One sliding-window batch: the `k` oldest live edges are deleted and
    /// `k` fresh edges inserted. The inserted edges have pairwise distinct
    /// endpoints (so a batch always touches at least `2k` vertices) and never
    /// duplicate a live pair. The model is advanced to the post-batch state.
    pub fn slide(&mut self, k: usize, rng: &mut StdRng) -> Vec<GraphUpdate> {
        assert!(2 * k <= self.n, "{k} disjoint inserts need {} vertices", 2 * k);
        let mut updates = Vec::with_capacity(2 * k);
        for _ in 0..k {
            let id = self.order.pop_front().expect("window holds at least k edges");
            self.live.remove(&id);
            updates.push(GraphUpdate::DeleteEdge { id });
        }
        let pairs: HashSet<(VertexId, VertexId)> =
            self.live.values().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
        let mut used = HashSet::new();
        let mut inserted = 0;
        while inserted < k {
            let u = rng.gen_range(0..self.n) as VertexId;
            let v = rng.gen_range(0..self.n) as VertexId;
            if u == v || used.contains(&u) || used.contains(&v) {
                continue;
            }
            if pairs.contains(&(u.min(v), u.max(v))) {
                continue;
            }
            used.insert(u);
            used.insert(v);
            let w = weight(rng);
            updates.push(GraphUpdate::InsertEdge { u, v, w });
            self.live.insert(self.next_id, Edge::new(u, v, w));
            self.order.push_back(self.next_id);
            self.next_id += 1;
            inserted += 1;
        }
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = gnm_edges(30, 100, &mut rng(5, 1));
        let b = gnm_edges(30, 100, &mut rng(5, 1));
        let c = gnm_edges(30, 100, &mut rng(6, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn a_slide_keeps_the_window_size_and_touches_2k_vertices() {
        let base = gnm_edges(20, 60, &mut rng(1, 2));
        let mut model = WindowModel::new(20, &base);
        let mut r = rng(1, 3);
        for _ in 0..30 {
            let batch = model.slide(3, &mut r);
            assert_eq!(batch.len(), 6);
            assert_eq!(model.live.len(), 60);
            let mut touched = HashSet::new();
            for u in &batch {
                if let GraphUpdate::InsertEdge { u, v, .. } = u {
                    touched.insert(*u);
                    touched.insert(*v);
                }
            }
            assert_eq!(touched.len(), 6);
        }
    }
}
