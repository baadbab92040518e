//! Independent references and the checks that compare the program's
//! outputs against them. Every reference here is written from the
//! algorithm's definition over the input graph's adjacency; none calls
//! the program's algorithms. Where no independent reference exists (PRD,
//! BP, serving `pr`/`prd`), the check is the property the program
//! promises instead: agreement with its own sequential backend.

use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use vebo_core::VeboResult;
use vebo_graph::{Graph, VertexId};

pub const UNREACHED: u32 = u32::MAX;

/// Result of one check: `Err` carries the first disagreement found.
pub type Check = Result<(), String>;

/// Levels of a plain FIFO breadth-first search along out-arcs.
pub fn bfs_levels(g: &Graph, src: VertexId) -> Vec<u32> {
    let mut level = vec![UNREACHED; g.num_vertices()];
    level[src as usize] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in g.out_neighbors(u) {
            if level[v as usize] == UNREACHED {
                level[v as usize] = level[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

/// A BFS parent array is right when every reached vertex hangs off an
/// in-neighbour one level closer to the source, and exactly the
/// reachable vertices are reached.
pub fn check_bfs_parents(g: &Graph, src: VertexId, parents: &[u32], levels: &[u32]) -> Check {
    if parents.len() != levels.len() {
        return Err(format!(
            "bfs: {} parents for {} vertices",
            parents.len(),
            levels.len()
        ));
    }
    for (v, (&p, &l)) in parents.iter().zip(levels).enumerate() {
        let ok = if l == UNREACHED {
            p == UNREACHED
        } else if v == src as usize {
            p == src
        } else {
            p != UNREACHED
                && (p as usize) < levels.len()
                && levels[p as usize] != UNREACHED
                && levels[p as usize] + 1 == l
                && g.in_neighbors(v as VertexId).contains(&p)
        };
        if !ok {
            return Err(format!("bfs: vertex {v} has parent {p} but level {l}"));
        }
    }
    Ok(())
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Component labels by union-find, each the smallest id in its
/// component (undirected graphs).
pub fn union_find_labels(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for u in 0..n as u32 {
        for &v in g.out_neighbors(u) {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v));
            if a != b {
                // The smaller root wins, so roots are component minima.
                parent[a.max(b) as usize] = a.min(b);
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// For directed graphs, label propagation along arcs settles each vertex
/// at the smallest id that reaches it. Sweeping sources in increasing id
/// order and stopping at already-labelled vertices computes exactly
/// that in O(n + m): everything below a labelled vertex was reached by
/// the smaller source that labelled it.
pub fn min_reaching_labels(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![UNREACHED; n];
    let mut stack = Vec::new();
    for s in 0..n as u32 {
        if label[s as usize] != UNREACHED {
            continue;
        }
        label[s as usize] = s;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in g.out_neighbors(u) {
                if label[v as usize] == UNREACHED {
                    label[v as usize] = s;
                    stack.push(v);
                }
            }
        }
    }
    label
}

/// The labels connected components must produce on `g`.
pub fn component_labels(g: &Graph) -> Vec<u32> {
    if g.is_directed() {
        min_reaching_labels(g)
    } else {
        union_find_labels(g)
    }
}

/// `y[v] = sum over in-arcs (u, v) of w(u, v) * x[u]`, multiplied out
/// arc by arc.
pub fn spmv_direct(g: &Graph, x: &[f64]) -> Vec<f64> {
    (0..g.num_vertices() as VertexId)
        .map(|v| {
            let ws = g.csc().weights_of(v);
            g.in_neighbors(v)
                .iter()
                .zip(ws)
                .map(|(&u, &w)| w as f64 * x[u as usize])
                .sum()
        })
        .collect()
}

/// Dijkstra distances over the arc weights. The weights are small
/// integers, so every distance is an exact sum.
pub fn dijkstra(g: &Graph, src: VertexId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.num_vertices()];
    dist[src as usize] = 0.0;
    let mut heap = BinaryHeap::from([(std::cmp::Reverse(0u64), src)]);
    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        let d = d as f64;
        if d > dist[u as usize] {
            continue;
        }
        for (&v, &w) in g.out_neighbors(u).iter().zip(g.csr().weights_of(u)) {
            let cand = d + w as f64;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push((std::cmp::Reverse(cand as u64), v));
            }
        }
    }
    dist
}

/// PageRank by power iteration from the uniform vector: `damping` times
/// the rank pushed along out-arcs plus `(1 - damping) / n`; vertices
/// without out-arcs leak their mass, as the program's definition does.
pub fn pagerank_power(g: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        for u in 0..n as VertexId {
            let out = g.out_neighbors(u);
            if !out.is_empty() {
                let share = damping * rank[u as usize] / out.len() as f64;
                for &v in out {
                    next[v as usize] += share;
                }
            }
        }
        rank = next;
    }
    rank
}

/// Brandes' single-source dependencies: shortest-path counts by BFS,
/// then dependencies accumulated in reverse BFS order.
pub fn brandes(g: &Graph, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let level = bfs_levels(g, src);
    let mut order: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| level[v as usize] != UNREACHED)
        .collect();
    order.sort_by_key(|&v| level[v as usize]);
    let mut sigma = vec![0.0f64; n];
    sigma[src as usize] = 1.0;
    for &u in &order {
        for &v in g.out_neighbors(u) {
            if level[v as usize] == level[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &u in order.iter().rev() {
        for &v in g.out_neighbors(u) {
            if level[v as usize] == level[u as usize] + 1 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta
}

pub fn check_equal<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) -> Check {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v}: {:?}, expected {:?}",
            got[v], want[v]
        )),
    }
}

/// Bit-for-bit equality of two float vectors.
pub fn check_bits(what: &str, got: &[f64], want: &[f64]) -> Check {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    check_equal(what, &bits(got), &bits(want))
}

/// `|got - want| <= rel * max(|got|, |want|) + abs` everywhere.
pub fn check_close(what: &str, got: &[f64], want: &[f64], rel: f64, abs: f64) -> Check {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        let same_inf = a.is_infinite() && b.is_infinite() && a.signum() == b.signum();
        // Written so that a NaN on either side is never close.
        let close = (a - b).abs() <= rel * a.abs().max(b.abs()) + abs;
        if !same_inf && !close {
            return Err(format!("{what}: vertex {v}: {a}, expected {b}"));
        }
    }
    Ok(())
}

/// `new_id` maps `0..n` one-to-one onto `0..n`.
pub fn check_bijection(new_id: &[VertexId]) -> Check {
    let n = new_id.len();
    let mut seen = vec![false; n];
    for (old, &new) in new_id.iter().enumerate() {
        if new as usize >= n || std::mem::replace(&mut seen[new as usize], true) {
            return Err(format!(
                "vebo: ordering is not a bijection at vertex {old} -> {new}"
            ));
        }
    }
    Ok(())
}

/// What the VEBO checks measured on the way.
#[derive(Clone, Copy, Debug)]
pub struct VeboFacts {
    pub edge_spread: u64,
    pub vertex_spread: usize,
}

/// VEBO's contract on graph `g`, its result `r` and the relabelled graph
/// `h`: the ordering is a bijection, every arc maps to an arc (as a
/// multiset, so parallel arcs count), each partition's counts match the
/// relabelled in-degrees, and the edge spread stays within the maximum
/// in-degree.
pub fn check_vebo(g: &Graph, r: &VeboResult, h: &Graph) -> Result<VeboFacts, String> {
    let n = g.num_vertices();
    let new_id = r.permutation.as_slice();
    if new_id.len() != n || h.num_vertices() != n || h.num_edges() != g.num_edges() {
        return Err(format!(
            "vebo: sizes differ: {} ids, {} / {} vertices, {} / {} arcs",
            new_id.len(),
            n,
            h.num_vertices(),
            g.num_edges(),
            h.num_edges()
        ));
    }
    check_bijection(new_id)?;
    let mut mapped = Vec::new();
    let mut have = Vec::new();
    for u in 0..n as VertexId {
        mapped.clear();
        mapped.extend(g.out_neighbors(u).iter().map(|&v| new_id[v as usize]));
        mapped.sort_unstable();
        have.clear();
        have.extend_from_slice(h.out_neighbors(new_id[u as usize]));
        have.sort_unstable();
        if mapped != have {
            return Err(format!(
                "vebo: out-arcs of vertex {u} do not map onto the relabelled graph"
            ));
        }
    }
    let p = r.num_partitions();
    if r.starts.len() != p + 1 || r.starts[0] != 0 || r.starts[p] != n || r.edge_counts.len() != p {
        return Err("vebo: partition boundaries do not cover the vertices".to_string());
    }
    for q in 0..p {
        let (lo, hi) = (r.starts[q], r.starts[q + 1]);
        if hi < lo || r.vertex_counts[q] != hi - lo {
            return Err(format!(
                "vebo: partition {q} holds {} vertices, boundaries say {}",
                r.vertex_counts[q],
                hi.wrapping_sub(lo)
            ));
        }
        let arcs: u64 = (lo..hi).map(|v| h.in_degree(v as VertexId) as u64).sum();
        if arcs != r.edge_counts[q] {
            return Err(format!(
                "vebo: partition {q} counts {} arcs, relabelled in-degrees sum to {arcs}",
                r.edge_counts[q]
            ));
        }
    }
    let spread = |xs: &[u64]| xs.iter().max().unwrap_or(&0) - xs.iter().min().unwrap_or(&0);
    let edge_spread = spread(&r.edge_counts);
    let vertex_counts: Vec<u64> = r.vertex_counts.iter().map(|&c| c as u64).collect();
    let vertex_spread = spread(&vertex_counts) as usize;
    let max_in = (0..n as VertexId)
        .map(|v| g.in_degree(v))
        .max()
        .unwrap_or(0) as u64;
    if edge_spread > max_in {
        return Err(format!(
            "vebo: edge spread {edge_spread} exceeds the maximum in-degree {max_in}"
        ));
    }
    Ok(VeboFacts {
        edge_spread,
        vertex_spread,
    })
}

/// FNV-1a over little-endian `u64`s: the digest serving replies carry,
/// restated here from its definition.
pub fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The benchmark's own model of an undirected graph under set-semantics
/// mutations: an edge is present or not, whatever the history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSetModel {
    edges: BTreeSet<(VertexId, VertexId)>,
}

impl EdgeSetModel {
    fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        (u.min(v), u.max(v))
    }

    pub fn from_graph(g: &Graph) -> EdgeSetModel {
        let mut edges = BTreeSet::new();
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.out_neighbors(u) {
                edges.insert(Self::key(u, v));
            }
        }
        EdgeSetModel { edges }
    }

    pub fn add(&mut self, u: VertexId, v: VertexId) {
        self.edges.insert(Self::key(u, v));
    }

    pub fn del(&mut self, u: VertexId, v: VertexId) {
        self.edges.remove(&Self::key(u, v));
    }

    /// The model as an undirected graph on `n` vertices.
    pub fn to_graph(&self, n: usize) -> Graph {
        let edges: Vec<(VertexId, VertexId)> = self.edges.iter().copied().collect();
        Graph::from_edges(n, &edges, false)
    }

    /// `g` holds exactly the model's edges, each in both directions.
    pub fn check_graph(&self, g: &Graph) -> Check {
        let got = EdgeSetModel::from_graph(g);
        if let Some(e) = self.edges.difference(&got.edges).next() {
            return Err(format!(
                "churn: edge {e:?} is missing from the settled graph"
            ));
        }
        if let Some(e) = got.edges.difference(&self.edges).next() {
            return Err(format!(
                "churn: settled graph has edge {e:?} the script never left"
            ));
        }
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.out_neighbors(u) {
                if !g.out_neighbors(v).contains(&u) {
                    return Err(format!("churn: arc ({u}, {v}) has no mirror"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_algorithms::bc::bc;
    use vebo_algorithms::bellman_ford::bellman_ford;
    use vebo_algorithms::bfs::bfs;
    use vebo_algorithms::cc::cc;
    use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
    use vebo_algorithms::spmv::spmv;
    use vebo_core::Vebo;
    use vebo_engine::{Executor, PreparedGraph, SystemProfile};

    fn small_directed() -> Graph {
        crate::inputs::skew_graph(5, crate::inputs::Scale { smoke: true })
    }

    fn prepared(g: &Graph) -> (Executor, PreparedGraph) {
        let profile = SystemProfile::ligra_like();
        let pg = PreparedGraph::builder(g.clone())
            .profile(profile)
            .build()
            .unwrap();
        (Executor::new(profile), pg)
    }

    #[test]
    fn references_agree_with_the_program_and_reject_corruption() {
        let g = small_directed().with_hash_weights(32);
        let (exec, pg) = prepared(&g);
        let src = vebo_algorithms::default_source(&g);

        let levels = bfs_levels(&g, src);
        let (mut parents, _) = bfs(&exec, &pg, src);
        assert_eq!(check_bfs_parents(&g, src, &parents, &levels), Ok(()));
        let v = (0..parents.len()).find(|&v| levels[v] == 2).unwrap();
        let mut bad_levels = levels.clone();
        bad_levels[v] = 3;
        assert!(check_bfs_parents(&g, src, &parents, &bad_levels).is_err());
        parents[v] = src;
        assert!(check_bfs_parents(&g, src, &parents, &levels).is_err());

        let (mut labels, _) = cc(&exec, &pg);
        let want = component_labels(&g);
        assert_eq!(check_equal("cc", &labels, &want), Ok(()));
        let v = (0..labels.len()).find(|&v| labels[v] != v as u32).unwrap();
        labels[v] = v as u32;
        assert!(check_equal("cc", &labels, &want).is_err());

        let (mut pr, _) = pagerank(&exec, &pg, &PageRankConfig::default());
        let want = pagerank_power(&g, 0.85, 10);
        assert_eq!(check_close("pr", &pr, &want, 1e-9, 0.0), Ok(()));
        pr[7] *= 1.0 + 1e-6;
        assert!(check_close("pr", &pr, &want, 1e-9, 0.0).is_err());

        let (mut dep, _) = bc(&exec, &pg, src);
        let want = brandes(&g, src);
        assert_eq!(check_close("bc", &dep, &want, 1e-9, 1e-12), Ok(()));
        let v = (0..dep.len()).find(|&v| dep[v] > 0.0).unwrap();
        dep[v] += 0.5;
        assert!(check_close("bc", &dep, &want, 1e-9, 1e-12).is_err());

        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| (i % 17) as f64 / 17.0)
            .collect();
        let (y, _) = spmv(&exec, &pg, &x);
        assert_eq!(
            check_close("spmv", &y, &spmv_direct(&g, &x), 1e-12, 0.0),
            Ok(())
        );

        let (mut dist, _) = bellman_ford(&exec, &pg, src);
        let want = dijkstra(&g, src);
        assert_eq!(check_equal("bf", &dist, &want), Ok(()));
        let v = (0..dist.len())
            .find(|&v| dist[v].is_finite() && dist[v] > 0.0)
            .unwrap();
        dist[v] += 1.0;
        assert!(check_equal("bf", &dist, &want).is_err());
        assert!(check_bits("bits", &[1.0, 2.0], &[1.0, 2.0 + 1e-15]).is_err());
    }

    #[test]
    fn undirected_components_use_union_find() {
        let g = Graph::from_edges(6, &[(4, 1), (1, 5), (2, 3)], false);
        assert_eq!(component_labels(&g), vec![0, 1, 2, 2, 1, 1]);
        let d = Graph::from_edges(4, &[(3, 1), (1, 2), (0, 2)], true);
        assert_eq!(component_labels(&d), vec![0, 1, 0, 3]);
    }

    #[test]
    fn vebo_check_rejects_a_non_bijective_ordering_and_a_lost_arc() {
        let g = small_directed();
        let r = Vebo::new(16).compute_full(&g);
        let h = r.permutation.apply_graph(&g);
        let facts = check_vebo(&g, &r, &h).unwrap();
        assert!(facts.vertex_spread <= 1);

        let mut ids = r.permutation.as_slice().to_vec();
        assert_eq!(check_bijection(&ids), Ok(()));
        ids[1] = ids[0];
        assert!(check_bijection(&ids).is_err());
        let mut other = r.clone();
        other.permutation = vebo_graph::Permutation::identity(ids.len());
        assert!(check_vebo(&g, &other, &h).is_err());

        let mut counts = r.clone();
        counts.edge_counts[0] += 1;
        counts.edge_counts[1] -= 1;
        assert!(check_vebo(&g, &counts, &h).is_err());

        let mut arcs = Vec::new();
        for u in 0..h.num_vertices() as VertexId {
            for &v in h.out_neighbors(u) {
                arcs.push((u, v));
            }
        }
        arcs.pop();
        let lost = Graph::from_edges(h.num_vertices(), &arcs, true);
        assert!(check_vebo(&g, &r, &lost).is_err());
    }

    #[test]
    fn digest_matches_the_served_definition() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        let xs = [3u64, u64::MAX, 0, 17];
        assert_eq!(fnv1a(xs), vebo_graph::digest_u64s(xs));
    }

    #[test]
    fn churn_model_rejects_a_dropped_edge() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)], false);
        let mut model = EdgeSetModel::from_graph(&g);
        model.add(2, 0);
        model.del(4, 3);
        model.add(4, 3);
        model.del(1, 2);
        let settled = Graph::from_edges(5, &[(0, 1), (0, 2), (3, 4)], false);
        assert_eq!(model.check_graph(&settled), Ok(()));
        let mut dropped = model.clone();
        dropped.del(0, 2);
        assert!(dropped.check_graph(&settled).is_err());
        let missing = Graph::from_edges(5, &[(0, 1), (3, 4)], false);
        assert!(model.check_graph(&missing).is_err());
    }
}
