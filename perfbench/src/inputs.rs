//! Seeded inputs: every graph comes from the workspace's public
//! generators with a seed derived from `--seed`, and every request script
//! from the benchmark's own SplitMix stream. Nothing here is timed.

use std::path::{Path, PathBuf};
use vebo_bench::serve::Request;
use vebo_graph::gen::grid::{grid_graph, GridConfig};
use vebo_graph::gen::powerlaw::{zipf_directed, ZipfGraphConfig};
use vebo_graph::gen::random_permutation;
use vebo_graph::gen::rmat::{rmat_edges, rmat_graph, RmatConfig};
use vebo_graph::io::{save_graph, Format};
use vebo_graph::{Graph, VertexId};

use crate::util::SplitMix;

/// Input sizes; `smoke` shrinks every graph so a whole workload runs in
/// about a second.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// Twitter-like directed Zipf graph: in-degrees follow the paper's Zipf
/// model (s = 1.35, max in-degree n/40), out-edges concentrate on few
/// sources, 4% of vertices have no out-edges. ~4.3M arcs at full size.
pub fn skew_graph(seed: u64, scale: Scale) -> Graph {
    let n = scale.pick(70_000, 3_000);
    zipf_directed(&ZipfGraphConfig {
        num_vertices: n,
        num_ranks: (n / 40).clamp(16, 4000),
        s: 1.35,
        out_skew: 2.5,
        zero_out_fraction: 0.04,
        shuffle_ids: true,
        seed: derive(seed, 1),
    })
}

/// USA-road-like undirected mesh: a 500 x 500 lattice with 5% of its
/// roads removed and 8% diagonal shortcuts, row-major ids, maximum degree
/// 8, ~1.0M arcs at full size. The lattice is wrapped into a torus (each
/// row's and column's ends joined, with the same removal rate) so that
/// every vertex is about as far from the farthest one: label propagation
/// runs from vertex 0, which VEBO places anywhere, and on an open grid
/// its round count, and so `run_s`, would swing twofold with the seed.
pub fn road_graph(seed: u64, scale: Scale) -> Graph {
    let side = scale.pick(500, 60);
    let deletion_prob = 0.05;
    let s = derive(seed, 2);
    let mesh = grid_graph(&GridConfig {
        width: side,
        height: side,
        diagonal_prob: 0.08,
        deletion_prob,
        seed: s,
    });
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(mesh.num_edges() / 2 + 2 * side);
    for u in 0..mesh.num_vertices() as VertexId {
        edges.extend(
            mesh.out_neighbors(u)
                .iter()
                .filter(|&&v| u < v)
                .map(|&v| (u, v)),
        );
    }
    let mut rng = SplitMix::new(s);
    let id = |x: usize, y: usize| (y * side + x) as VertexId;
    for i in 0..side {
        for e in [(id(side - 1, i), id(0, i)), (id(i, side - 1), id(i, 0))] {
            if rng.below(1 << 20) as f64 >= deletion_prob * (1 << 20) as f64 {
                edges.push(e);
            }
        }
    }
    Graph::from_edges(side * side, &edges, false)
}

/// Undirected R-MAT graph for serving (Graph500 quadrant probabilities,
/// scale 16, edge factor 10, duplicates merged, ids shuffled). Undirected
/// so that component labels are components, which union-find can check.
/// ~1.2M arcs at full size.
pub fn serve_graph(seed: u64, scale: Scale) -> Graph {
    let bits = scale.pick(16, 9);
    let s = derive(seed, 3);
    let mut edges = rmat_edges(&RmatConfig {
        scale: bits,
        edge_factor: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        dedup: true,
        shuffle_ids: false,
        seed: s,
    });
    // Merge the two orientations of each pair before symmetrizing.
    for e in edges.iter_mut() {
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let n = 1usize << bits;
    let g = Graph::from_edges(n, &edges, false);
    random_permutation(n, s ^ 0xD1CE).apply_graph(&g)
}

/// Directed R-MAT graph for the cluster (scale 18, edge factor 10):
/// ~2.5M arcs at full size, 69% of vertices without edges.
pub fn cluster_graph(seed: u64, scale: Scale) -> Graph {
    rmat_graph(&RmatConfig {
        scale: scale.pick(18, 10),
        edge_factor: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        dedup: true,
        shuffle_ids: true,
        seed: derive(seed, 4),
    })
}

/// Writes `g` as `.vgr` under `dir` and returns the path.
pub fn write_vgr(dir: &Path, name: &str, g: &Graph) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.vgr"));
    save_graph(g, &path, Format::Binary).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Requests per connection per round: exact counts, so every round of
/// every run carries the same mix.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub label: usize,
    pub bfs: usize,
    pub pr: usize,
    pub prd: usize,
    /// Add/delete pairs on one owned absent edge (`add e` then `del e`).
    pub toggle_new: usize,
    /// Delete/add pairs on one owned existing edge (`del f` then `add f`).
    pub toggle_old: usize,
    /// Lone adds of owned absent edges (they persist).
    pub add_only: usize,
    /// Lone deletes of owned existing edges (they persist).
    pub del_only: usize,
}

impl Mix {
    /// 70% label, 23% bfs, 5% pr, 2% prd.
    pub const READ: Mix = Mix {
        label: 70,
        bfs: 23,
        pr: 5,
        prd: 2,
        toggle_new: 0,
        toggle_old: 0,
        add_only: 0,
        del_only: 0,
    };
    /// 20% add/del, the reads in about the same proportions.
    pub const CHURN: Mix = Mix {
        label: 56,
        bfs: 18,
        pr: 4,
        prd: 2,
        toggle_new: 4,
        toggle_old: 4,
        add_only: 2,
        del_only: 2,
    };

    pub fn per_round(&self) -> usize {
        self.label
            + self.bfs
            + self.pr
            + self.prd
            + 2 * (self.toggle_new + self.toggle_old)
            + self.add_only
            + self.del_only
    }
}

/// Distinct seeds that `bfs` and `pr` requests draw from, and the `prd`
/// round counts; small enough that every distinct request gets an
/// independent expected answer before the measurement starts.
pub const BFS_POOL: usize = 32;
pub const PR_POOL: usize = 16;
pub const PRD_ROUNDS: [u32; 2] = [2, 3];

/// The connection that owns undirected edge `{u, v}`: only it ever
/// mutates that edge, so the settled graph does not depend on how the
/// connections interleave.
pub fn owner(u: VertexId, v: VertexId, conns: usize) -> usize {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (SplitMix::new(((a as u64) << 32) | b as u64).next_u64() % conns as u64) as usize
}

/// A serving workload's request scripts: one fixed round per connection,
/// replayed every round, plus the pools the reads draw from.
pub struct Scripts {
    pub rounds: Vec<Vec<Request>>,
    pub bfs_pool: Vec<VertexId>,
    pub pr_pool: Vec<VertexId>,
}

pub fn scripts(g: &Graph, mix: Mix, conns: usize, seed: u64) -> Scripts {
    let n = g.num_vertices() as u64;
    let mut rng = SplitMix::new(derive(seed, 5));
    // Traversals start inside the largest component, from vertices
    // spread evenly over its degree ranks: half of an R-MAT graph's
    // vertices are isolated, and a request's cost follows its seed's
    // degree, so a pool drawn uniformly would make one seed's mix far
    // cheaper than another's.
    let labels = crate::check::union_find_labels(g);
    let mut sizes = vec![0u32; labels.len()];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let giant = (0..sizes.len()).max_by_key(|&l| sizes[l]).unwrap_or(0) as u32;
    let mut members: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| labels[v as usize] == giant)
        .collect();
    members.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    let pool = |k: usize, rng: &mut SplitMix| -> Vec<VertexId> {
        let stratum = (members.len() / k).max(1) as u64;
        (0..k)
            .map(|i| {
                members[(i * stratum as usize + rng.below(stratum) as usize).min(members.len() - 1)]
            })
            .collect()
    };
    let bfs_pool = pool(BFS_POOL, &mut rng);
    let pr_pool = pool(PR_POOL, &mut rng);
    let rounds = (0..conns)
        .map(|c| {
            let mut reqs = Vec::with_capacity(mix.per_round());
            for _ in 0..mix.label {
                reqs.push(vec![Request::Label {
                    v: rng.below(n) as VertexId,
                }]);
            }
            // The connections walk the pools in turn, so every round
            // covers the same seeds whatever the seed of the run.
            for i in 0..mix.bfs {
                reqs.push(vec![Request::Bfs {
                    seed: bfs_pool[(c * mix.bfs + i) % BFS_POOL],
                }]);
            }
            for i in 0..mix.pr {
                reqs.push(vec![Request::PageRankSeed {
                    seed: pr_pool[(c * mix.pr + i) % PR_POOL],
                }]);
            }
            for i in 0..mix.prd {
                reqs.push(vec![Request::PageRankDelta {
                    rounds: PRD_ROUNDS[i % PRD_ROUNDS.len()],
                }]);
            }
            let absent = |rng: &mut SplitMix| loop {
                let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
                if u != v && owner(u, v, conns) == c && !g.out_neighbors(u).contains(&v) {
                    return (u, v);
                }
            };
            let present = |rng: &mut SplitMix| loop {
                let u = rng.below(n) as VertexId;
                let nbrs = g.out_neighbors(u);
                if nbrs.is_empty() {
                    continue;
                }
                let v = nbrs[rng.below(nbrs.len() as u64) as usize];
                if u != v && owner(u, v, conns) == c {
                    return (u, v);
                }
            };
            // A toggle is one script unit so its two halves stay in order.
            for _ in 0..mix.toggle_new {
                let (u, v) = absent(&mut rng);
                reqs.push(vec![Request::AddEdge { u, v }, Request::DelEdge { u, v }]);
            }
            for _ in 0..mix.toggle_old {
                let (u, v) = present(&mut rng);
                reqs.push(vec![Request::DelEdge { u, v }, Request::AddEdge { u, v }]);
            }
            for _ in 0..mix.add_only {
                let (u, v) = absent(&mut rng);
                reqs.push(vec![Request::AddEdge { u, v }]);
            }
            for _ in 0..mix.del_only {
                let (u, v) = present(&mut rng);
                reqs.push(vec![Request::DelEdge { u, v }]);
            }
            // Fisher-Yates over script units, then flatten.
            for i in (1..reqs.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                reqs.swap(i, j);
            }
            reqs.into_iter().flatten().collect()
        })
        .collect();
    Scripts {
        rounds,
        bfs_pool,
        pr_pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let s = Scale { smoke: true };
        let a = serve_graph(9, s);
        let b = serve_graph(9, s);
        assert_eq!(a.csr().targets(), b.csr().targets());
        let c = serve_graph(10, s);
        assert_ne!(a.csr().targets(), c.csr().targets());
        let x = scripts(&a, Mix::CHURN, 2, 9);
        let y = scripts(&b, Mix::CHURN, 2, 9);
        assert_eq!(x.rounds, y.rounds);
    }

    #[test]
    fn churn_scripts_mutate_only_owned_edges_in_exact_mix() {
        let g = serve_graph(3, Scale { smoke: true });
        let conns = 3;
        let s = scripts(&g, Mix::CHURN, conns, 3);
        for (c, round) in s.rounds.iter().enumerate() {
            assert_eq!(round.len(), Mix::CHURN.per_round());
            let writes = round.iter().filter(|r| r.mutates()).count();
            assert_eq!(writes, 20);
            for r in round {
                if let Request::AddEdge { u, v } | Request::DelEdge { u, v } = *r {
                    assert_eq!(owner(u, v, conns), c);
                    assert_ne!(u, v);
                }
            }
        }
    }
}
