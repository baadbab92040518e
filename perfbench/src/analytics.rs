//! The analytics workloads: load a `.vgr`, reorder it with VEBO at
//! P = 384, relabel, prepare it for a system profile, then run all eight
//! algorithms on the rayon backend, round after round.

use std::time::Instant;
use vebo_algorithms::bc::bc;
use vebo_algorithms::bellman_ford::bellman_ford;
use vebo_algorithms::bfs::bfs;
use vebo_algorithms::bp::{bp, BpConfig};
use vebo_algorithms::cc::cc;
use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
use vebo_algorithms::pagerank_delta::{pagerank_delta, PageRankDeltaConfig};
use vebo_algorithms::spmv::spmv;
use vebo_algorithms::{default_source, AlgorithmKind, RunReport};
use vebo_core::Vebo;
use vebo_engine::{ExecMode, Executor, PreparedGraph, SystemProfile};
use vebo_graph::io::{load_graph, Format};
use vebo_graph::{Graph, VertexId};

use crate::check::{self, Check};
use crate::util::{median, nproc, peak_rss_mb};
use crate::{Ctx, Outcome, SESSIONS};

/// Partitions VEBO balances, as in the paper's 48-thread runs.
const PARTITIONS: usize = 384;
/// Weights for SPMV, BF and BP: small integers, so shortest-path sums
/// stay exact.
const MAX_WEIGHT: u32 = 32;

/// Everything an algorithm round is checked against, computed once from
/// the first session's relabelled graph.
struct References {
    /// Digest of the relabelled graph, so later sessions can show they
    /// prepared the same graph without keeping a copy alive.
    digest: u64,
    src: VertexId,
    x: Vec<f64>,
    levels: Vec<u32>,
    labels: Vec<u32>,
    pr: Vec<f64>,
    bc: Vec<f64>,
    spmv: Vec<f64>,
    bf: Vec<f64>,
    prd_seq: Vec<f64>,
    bp_seq: Vec<f64>,
}

/// Where the traversals (BFS, BC, BF) start.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// The vertex of highest out-degree, as the program's runner picks.
    MaxOutDegree,
    /// The middle of a square mesh's middle row. The runner's pick on a
    /// mesh lands anywhere in its first rows, so the number of rounds
    /// (and memory held per round) would swing with the seed.
    MeshCentre,
}

impl Source {
    /// The source's id in `g`, before relabelling.
    fn pick(self, g: &Graph) -> VertexId {
        match self {
            Source::MaxOutDegree => default_source(g),
            Source::MeshCentre => {
                let n = g.num_vertices();
                let side = (n as f64).sqrt() as usize;
                (n / 2 + side / 2..n)
                    .map(|v| v as VertexId)
                    .find(|&v| g.out_degree(v) > 0)
                    .unwrap_or(0)
            }
        }
    }
}

impl References {
    fn new(pg: &PreparedGraph, profile: SystemProfile, src: VertexId) -> References {
        let g = pg.graph();
        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| (i % 17) as f64 / 17.0)
            .collect();
        let seq = Executor::new(profile);
        References {
            digest: graph_digest(g),
            src,
            levels: check::bfs_levels(g, src),
            labels: check::component_labels(g),
            pr: check::pagerank_power(g, 0.85, 10),
            bc: check::brandes(g, src),
            spmv: check::spmv_direct(g, &x),
            bf: check::dijkstra(g, src),
            prd_seq: pagerank_delta(&seq, pg, &PageRankDeltaConfig::default()).0,
            bp_seq: bp(&seq, pg, &BpConfig::default()).0,
            x,
        }
    }
}

fn graph_digest(g: &Graph) -> u64 {
    let csr = g.csr();
    check::fnv1a(
        csr.offsets()
            .iter()
            .map(|&o| o as u64)
            .chain(csr.targets().iter().map(|&t| t as u64))
            .chain(
                csr.raw_weights()
                    .unwrap_or(&[])
                    .iter()
                    .map(|w| w.to_bits() as u64),
            ),
    )
}

fn span_name(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::Bc => "algorithms.bc",
        AlgorithmKind::Cc => "algorithms.cc",
        AlgorithmKind::Pr => "algorithms.pr",
        AlgorithmKind::Bfs => "algorithms.bfs",
        AlgorithmKind::Prd => "algorithms.prd",
        AlgorithmKind::Spmv => "algorithms.spmv",
        AlgorithmKind::Bf => "algorithms.bf",
        AlgorithmKind::Bp => "algorithms.bp",
    }
}

/// Runs one algorithm with the configuration the program's runner uses
/// (PR and BP 10 iterations, PRD eps 1e-2) and checks its output.
fn run_checked(
    kind: AlgorithmKind,
    exec: &Executor,
    pg: &PreparedGraph,
    r: &References,
) -> (Check, RunReport) {
    let g = pg.graph();
    // PR and BC sum in an order that depends on the schedule; 1e-9 relative
    // is far above that rounding and far below any real error.
    match kind {
        AlgorithmKind::Bc => {
            let (out, rep) = bc(exec, pg, r.src);
            (check::check_close("bc", &out, &r.bc, 1e-9, 1e-12), rep)
        }
        AlgorithmKind::Cc => {
            let (out, rep) = cc(exec, pg);
            (check::check_equal("cc", &out, &r.labels), rep)
        }
        AlgorithmKind::Pr => {
            let (out, rep) = pagerank(exec, pg, &PageRankConfig::default());
            (check::check_close("pr", &out, &r.pr, 1e-9, 0.0), rep)
        }
        AlgorithmKind::Bfs => {
            let (out, rep) = bfs(exec, pg, r.src);
            (check::check_bfs_parents(g, r.src, &out, &r.levels), rep)
        }
        AlgorithmKind::Prd => {
            // PRD's sparse rounds push with atomic adds, so the program
            // promises agreement with its sequential backend to 1e-9
            // relative, not bit for bit.
            let (out, rep) = pagerank_delta(exec, pg, &PageRankDeltaConfig::default());
            (check::check_close("prd", &out, &r.prd_seq, 1e-9, 0.0), rep)
        }
        AlgorithmKind::Spmv => {
            let (out, rep) = spmv(exec, pg, &r.x);
            (check::check_close("spmv", &out, &r.spmv, 1e-12, 0.0), rep)
        }
        AlgorithmKind::Bf => {
            let (out, rep) = bellman_ford(exec, pg, r.src);
            (check::check_equal("bf", &out, &r.bf), rep)
        }
        AlgorithmKind::Bp => {
            let (out, rep) = bp(exec, pg, &BpConfig::default());
            (check::check_bits("bp", &out, &r.bp_seq), rep)
        }
    }
}

/// Max over mean task time, summed over every multi-task `edge_map` of
/// the sequential runs (whose per-task clocks are not shared with other
/// tasks): the paper's imbalance measure.
fn task_imbalance(reports: &[RunReport]) -> f64 {
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    for em in reports.iter().flat_map(|r| &r.edge_maps) {
        if em.tasks.len() > 1 {
            let nanos: Vec<f64> = em.tasks.iter().map(|t| t.nanos as f64).collect();
            max_sum += nanos.iter().cloned().fold(0.0, f64::max);
            mean_sum += nanos.iter().sum::<f64>() / nanos.len() as f64;
        }
    }
    if mean_sum > 0.0 {
        max_sum / mean_sum
    } else {
        0.0
    }
}

pub fn run(
    ctx: &Ctx,
    g0: Graph,
    profile: SystemProfile,
    mode: ExecMode,
    source: Source,
) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let path = crate::inputs::write_vgr(&ctx.workdir, &ctx.input_name(), &g0)?;
    drop(g0);
    let exec = Executor::new(profile).with_mode(mode);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut refs: Option<References> = None;
    let mut first_reports: Vec<RunReport> = Vec::new();
    let mut last_pg = None;
    for session in 0..SESSIONS {
        // One session's graphs in memory at a time.
        last_pg.take();
        let t0 = Instant::now();
        let (loaded, _) = tr.timed("graph.load", || {
            load_graph(&path, true, Some(Format::Binary))
        });
        let g = loaded
            .map_err(|e| format!("load {}: {e}", path.display()))?
            .0;
        let (r, _) = tr.timed("core.vebo", || Vebo::new(PARTITIONS).compute_full(&g));
        let (h, _) = tr.timed("graph.permute", || {
            r.permutation.apply_graph(&g).with_hash_weights(MAX_WEIGHT)
        });
        let (pg, _) = tr.timed("engine.prepare", || {
            PreparedGraph::builder(h)
                .profile(profile)
                .vebo_starts(Some(&r.starts))
                .build()
        });
        let pg = pg.map_err(|e| format!("prepare: {e:?}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        ctx.note("set up");

        // Checks, outside every timed interval.
        match check::check_vebo(&g, &r, pg.graph()) {
            Ok(facts) => {
                out.layer("core.edge_spread", facts.edge_spread as f64);
                out.layer("core.vertex_spread", facts.vertex_spread as f64);
            }
            Err(e) => out.errors.push(e),
        }
        match &refs {
            None => {
                let src = r.permutation.new_id(source.pick(&g));
                refs = Some(References::new(&pg, profile, src));
            }
            Some(r0) => {
                if r0.digest != graph_digest(pg.graph()) {
                    out.errors.push(format!(
                        "session {session}: relabelled graph differs from session 0"
                    ));
                }
            }
        }
        drop(g);
        let r = refs.as_ref().expect("set above");
        ctx.note("checked the reorder");

        let deadline = Instant::now() + ctx.session_budget();
        loop {
            let t = Instant::now();
            let mut reports = Vec::new();
            for kind in AlgorithmKind::ALL {
                let ((verdict, rep), _) =
                    tr.timed(span_name(kind), || run_checked(kind, &exec, &pg, r));
                out.attempted += 1;
                if let Err(e) = verdict {
                    out.errors.push(e);
                }
                reports.push(rep);
            }
            tr.record("round", t, Instant::now());
            rounds.push(t.elapsed().as_secs_f64());
            ctx.note("suite round");
            if first_reports.is_empty() {
                first_reports = reports;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        last_pg = Some(pg);
    }
    let measured: f64 = rounds.iter().sum();
    out.e2e.setup_s = median(&setups);
    out.e2e.run_s = median(&rounds);
    out.e2e.throughput_rps = out.attempted as f64 / measured;

    if tr.enabled() {
        let pg = last_pg.expect("at least one session");
        for name in ["graph.load", "graph.permute", "core.vebo", "engine.prepare"] {
            out.layer_secs(name, tr.median(name));
        }
        for kind in AlgorithmKind::ALL {
            out.layer_secs(span_name(kind), tr.median(span_name(kind)));
        }
        out.layer(
            "engine.edge_map_calls",
            first_reports
                .iter()
                .map(|r| r.edge_maps.len())
                .sum::<usize>() as f64,
        );
        out.layer(
            "engine.edges_traversed",
            first_reports.iter().map(|r| r.total_edges()).sum::<u64>() as f64,
        );
        // The same suite on the sequential backend: measured per-task
        // clocks for the imbalance and the simulator.
        let seq = Executor::new(profile);
        let r = refs.as_ref().expect("at least one session");
        let (seq_runs, seq_s) = tr.timed("engine.seq_suite", || {
            AlgorithmKind::ALL
                .iter()
                .map(|&k| run_checked(k, &seq, &pg, r))
                .collect::<Vec<_>>()
        });
        out.layer("engine.seq_run_s", seq_s);
        let rayon = Executor::new(profile).with_mode(ExecMode::Parallel);
        let (rayon_runs, rayon_s) = tr.timed("engine.rayon_suite", || {
            AlgorithmKind::ALL
                .iter()
                .map(|&k| run_checked(k, &rayon, &pg, r))
                .collect::<Vec<_>>()
        });
        let mut seq_reports = Vec::new();
        for (verdict, report) in seq_runs {
            out.errors.extend(verdict.err());
            seq_reports.push(report);
        }
        out.errors
            .extend(rayon_runs.into_iter().filter_map(|(v, _)| v.err()));
        out.layer("engine.rayon_run_s", rayon_s);
        out.layer("engine.parallel_speedup", seq_s / out.e2e.run_s);
        out.layer("engine.task_imbalance", task_imbalance(&seq_reports));
        let sim48: f64 = seq_reports.iter().map(|r| seq.simulated_seconds(r)).sum();
        out.layer("engine.sim_makespan_ms", sim48 * 1e3);
        let sim_here: f64 = seq_reports
            .iter()
            .map(|r| r.simulated_nanos(nproc(), profile.scheduling) / 1e9)
            .sum();
        out.layer("engine.sim_ratio", sim_here / out.e2e.run_s);
    }
    out.e2e.peak_rss_mb = peak_rss_mb();
    Ok(out)
}
