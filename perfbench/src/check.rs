//! Correctness checks made apart from the program: every returned matching is
//! checked against the benchmark's own copy of the input, never against the
//! program's view of it.

use dual_primal_matching::graph::{Edge, VertexId};
use std::collections::BTreeMap;

/// Relative tolerance for comparing a re-summed weight with a reported one
/// (the two sums may add the same terms in a different order).
const SUM_TOLERANCE: f64 = 1e-9;

/// The fractional vertex bound `Σ_v b(v)·maxw(v) / 2` with `b ≡ 1`: every
/// matched edge is covered by half the heaviest edge at each endpoint, so no
/// matching of `edges` weighs more.
pub fn vertex_bound(n: usize, edges: impl IntoIterator<Item = Edge>) -> f64 {
    let mut maxw = vec![0.0f64; n];
    for e in edges {
        maxw[e.u as usize] = maxw[e.u as usize].max(e.w);
        maxw[e.v as usize] = maxw[e.v as usize].max(e.w);
    }
    maxw.iter().sum::<f64>() / 2.0
}

/// Weight of the benchmark's own greedy matching (heaviest edge first, ties
/// by lower id): a ½-approximation the solver must beat by `(1-ε)`.
pub fn greedy_weight(n: usize, edges: &[Edge]) -> f64 {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| edges[b].w.total_cmp(&edges[a].w).then(a.cmp(&b)));
    let mut used = vec![false; n];
    let mut weight = 0.0;
    for i in order {
        let e = edges[i];
        if !used[e.u as usize] && !used[e.v as usize] {
            used[e.u as usize] = true;
            used[e.v as usize] = true;
            weight += e.w;
        }
    }
    weight
}

/// Checks that `entries` (edge id, edge, multiplicity) is a matching of the
/// live edges `live` over `n` unit-capacity vertices: every entry names a
/// live edge with the same endpoints and weight bits, no vertex is matched
/// twice, the re-summed weight equals `reported`, and it does not exceed the
/// vertex bound of `live`. Returns the re-summed weight.
pub fn check_matching(
    n: usize,
    live: &BTreeMap<usize, Edge>,
    entries: &[(usize, Edge, u64)],
    reported: f64,
) -> Result<f64, String> {
    let mut load = vec![0u64; n];
    let mut weight = 0.0;
    for &(id, e, mult) in entries {
        let Some(model) = live.get(&id) else {
            return Err(format!("edge {id} is not live"));
        };
        if model.key() != e.key() || model.w.to_bits() != e.w.to_bits() {
            return Err(format!("edge {id} is {e:?} but the input holds {model:?}"));
        }
        for x in [e.u as usize, e.v as usize] {
            if x >= n {
                return Err(format!("edge {id} names vertex {x} of {n}"));
            }
            load[x] += mult;
            if load[x] > 1 {
                return Err(format!("vertex {x} is matched twice"));
            }
        }
        weight += e.w * mult as f64;
    }
    if (weight - reported).abs() > SUM_TOLERANCE * weight.abs().max(1.0) {
        return Err(format!("reported weight {reported} but the edges sum to {weight}"));
    }
    check_bound(reported, vertex_bound(n, live.values().copied()))?;
    Ok(weight)
}

/// Checks a weight against an upper bound on every matching's weight.
pub fn check_bound(weight: f64, bound: f64) -> Result<(), String> {
    if weight > bound * (1.0 + SUM_TOLERANCE) {
        return Err(format!("weight {weight} exceeds the vertex bound {bound}"));
    }
    Ok(())
}

/// Checks the `(1-ε)` quality claim against the benchmark's greedy weight.
pub fn check_quality(weight: f64, eps: f64, greedy: f64) -> Result<(), String> {
    if weight < (1.0 - eps) * greedy {
        return Err(format!("weight {weight} is below (1-{eps}) x greedy {greedy}"));
    }
    Ok(())
}

/// What a committing write reported: the coordinates a later read must echo.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Committed {
    pub epoch: usize,
    pub version: u64,
    pub weight: f64,
}

/// Checks that a read returns exactly the epoch, version and weight bits its
/// committing write reported (a stale or torn read fails).
pub fn check_read(expected: Committed, got: Committed) -> Result<(), String> {
    if expected.epoch != got.epoch
        || expected.version != got.version
        || expected.weight.to_bits() != got.weight.to_bits()
    {
        return Err(format!("read {got:?} but the committing write reported {expected:?}"));
    }
    Ok(())
}

/// Checks a bare list of matched edges (no ids to look up) for a matching:
/// no vertex twice. Used where the input is regenerated rather than stored.
pub fn check_disjoint(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Result<(), String> {
    let mut used = vec![false; n];
    for (u, v) in edges {
        for x in [u as usize, v as usize] {
            if x >= n {
                return Err(format!("vertex {x} of {n} is out of range"));
            }
            if used[x] {
                return Err(format!("vertex {x} is matched twice"));
            }
            used[x] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> BTreeMap<usize, Edge> {
        [(0, Edge::new(0, 1, 3.0)), (1, Edge::new(1, 2, 2.0)), (2, Edge::new(2, 3, 4.0))]
            .into_iter()
            .collect()
    }

    #[test]
    fn a_valid_matching_passes() {
        let live = triangle();
        let entries = [(0, live[&0], 1), (2, live[&2], 1)];
        assert_eq!(check_matching(4, &live, &entries, 7.0), Ok(7.0));
    }

    #[test]
    fn a_vertex_matched_twice_is_rejected() {
        let live = triangle();
        let entries = [(0, live[&0], 1), (1, live[&1], 1)];
        let err = check_matching(4, &live, &entries, 5.0).unwrap_err();
        assert!(err.contains("matched twice"), "{err}");
        assert!(check_disjoint(4, [(0, 1), (1, 2)]).is_err());
    }

    #[test]
    fn a_weight_above_the_bound_is_rejected() {
        let live = triangle();
        let bound = vertex_bound(4, live.values().copied());
        assert_eq!(bound, (3.0 + 3.0 + 4.0 + 4.0) / 2.0);
        assert!(check_bound(7.0, bound).is_ok());
        assert!(check_bound(bound * 1.01, bound).unwrap_err().contains("vertex bound"));
        // An edge reported heavier than the input holds is caught before the
        // bound, and a total that disagrees with its edges is caught too.
        let heavy = [(0, Edge::new(0, 1, 30.0), 1)];
        assert!(check_matching(4, &live, &heavy, 30.0).unwrap_err().contains("input holds"));
        assert!(check_matching(4, &live, &[(0, live[&0], 1)], 31.0).is_err());
        assert!(check_quality(1.0, 0.2, 7.0).is_err());
        assert!(check_quality(6.0, 0.2, 7.0).is_ok());
    }

    #[test]
    fn a_stale_read_is_rejected() {
        let committed = Committed { epoch: 5, version: 40, weight: 12.5 };
        assert!(check_read(committed, committed).is_ok());
        let stale = Committed { epoch: 4, version: 36, weight: 12.5 };
        assert!(check_read(committed, stale).is_err());
        let torn = Committed { weight: f64::from_bits(12.5f64.to_bits() + 1), ..committed };
        assert!(check_read(committed, torn).is_err());
    }
}
