//! The cluster workload: `nproc` worker processes on loopback, each
//! running `run_worker` over the vertex-cut partitioner, clocked by a
//! `Coordinator` through PageRank, BFS and CC jobs.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;
use vebo_distributed::runtime::{
    decide_continue, run_local_on, ClusterAlgo, ClusterPlan, Partitioner,
};
use vebo_distributed::{Coordinator, Msg};
use vebo_graph::io::{load_graph, Format};
use vebo_graph::{Graph, VertexId};

use crate::check;
use crate::util::{median, nproc, peak_rss_mb};
use crate::{Ctx, Outcome, SESSIONS};

const PARTITIONER: Partitioner = Partitioner::VertexCut;
const PR_ITERS: u32 = 10;

/// Worker processes that are killed and reaped however the session ends.
struct Workers(Vec<Child>);

impl Workers {
    fn spawn(n: usize, addr: SocketAddr, graph: &Path) -> Result<Workers, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut ws = Workers(Vec::new());
        for _ in 0..n {
            let child = Command::new(&exe)
                .arg("--worker")
                .arg(addr.to_string())
                .arg(graph)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn worker: {e}"))?;
            ws.0.push(child);
        }
        Ok(ws)
    }

    /// Waits for every worker; each must exit cleanly. Returns the
    /// largest peak resident memory the workers reported, in MiB.
    fn join(mut self) -> Result<f64, String> {
        let mut peak: f64 = 0.0;
        // Popping leaves the rest to `Drop` if one of them fails.
        while let Some(c) = self.0.pop() {
            let out = c
                .wait_with_output()
                .map_err(|e| format!("wait worker: {e}"))?;
            if !out.status.success() {
                return Err(format!("worker exited with {}", out.status));
            }
            let report = String::from_utf8_lossy(&out.stdout);
            let mb = report
                .strip_prefix("peak_rss_mb ")
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("worker reported {report:?}"))?;
            peak = peak.max(mb);
        }
        Ok(peak)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The worker side: load the graph, serve the coordinator until it shuts
/// the cluster down, and report this process's peak resident memory on
/// stdout.
pub fn worker_main(addr: &str, graph: &str) -> Result<(), String> {
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address {addr}: {e}"))?;
    let g = load_graph(graph, true, Some(Format::Binary))
        .map_err(|e| format!("load {graph}: {e}"))?
        .0;
    vebo_distributed::run_worker(addr, &g, PARTITIONER).map_err(|e| format!("worker: {e}"))?;
    println!("peak_rss_mb {}", peak_rss_mb());
    Ok(())
}

/// One job, clocked superstep by superstep. Returns the final values,
/// the supersteps and the value pairs shipped between workers.
fn run_job(
    coord: &mut Coordinator,
    n: usize,
    algo: ClusterAlgo,
    steps_ms: &mut Vec<f64>,
    ctx: &Ctx,
) -> Result<(Vec<u64>, u32, u64), String> {
    let io = |e: std::io::Error| format!("coordinator: {e}");
    coord.broadcast(&Msg::Begin { algo }).map_err(io)?;
    let (mut step, mut sent) = (0u32, 0u64);
    loop {
        let (outcome, secs) = ctx
            .tracer
            .timed("distributed.superstep", || coord.barrier(step));
        let outcome = outcome.map_err(io)?;
        steps_ms.push(secs * 1e3);
        sent += outcome.sent;
        let go = decide_continue(algo, step + 1, outcome.active);
        coord.broadcast(&Msg::Continue { step, go }).map_err(io)?;
        step += 1;
        if !go {
            break;
        }
    }
    let values = coord.collect_values(n).map_err(io)?;
    Ok((values, step, sent))
}

/// Bytes on the wire for one job: every gather and scatter frame between
/// distinct workers, with its length header, computed from the message
/// encoding.
fn sync_bytes(supersteps: u32, values_sent: u64, workers: usize) -> f64 {
    let frame = |pairs: Vec<(u32, u64)>| 4 + Msg::Gather { step: 0, pairs }.encode().len() as u64;
    let empty = frame(Vec::new());
    let per_pair = frame(vec![(0, 0)]) - empty;
    let frames = supersteps as u64 * 2 * (workers * workers.saturating_sub(1)) as u64;
    (frames * empty + values_sent * per_pair) as f64
}

pub fn run(ctx: &Ctx, g: Graph) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let path = crate::inputs::write_vgr(&ctx.workdir, &ctx.input_name(), &g)?;
    let w = nproc();
    let n = g.num_vertices();

    // Independent references, and the in-process run over the same
    // placement that the socket cluster must match bit for bit.
    let src = (0..n as VertexId)
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0);
    let idle = (0..n as VertexId)
        .find(|&v| g.out_degree(v) == 0)
        .unwrap_or(src);
    let levels: Vec<u64> = check::bfs_levels(&g, src)
        .into_iter()
        .map(u64::from)
        .collect();
    let labels: Vec<u64> = check::min_reaching_labels(&g)
        .into_iter()
        .map(u64::from)
        .collect();
    let pr_power = check::pagerank_power(&g, 0.85, PR_ITERS as usize);
    let (placement, place_s) = tr.timed("distributed.place", || PARTITIONER.place(&g, w));
    let placement = placement.map_err(|e| format!("place: {e}"))?;
    let plans: Vec<ClusterPlan> = (0..w)
        .map(|m| ClusterPlan::build(&g, &placement, m as u32))
        .collect();
    let jobs = [
        ClusterAlgo::PageRank { iters: PR_ITERS },
        ClusterAlgo::Bfs { source: src },
        ClusterAlgo::Cc,
    ];
    let (local, local_s) = tr.timed("distributed.local_run", || {
        jobs.iter()
            .map(|&a| run_local_on(&plans, a))
            .collect::<Vec<_>>()
    });
    drop(plans);
    ctx.note("references and run_local_on ready");
    let replication = placement.replication_factor();
    drop(placement);
    drop(g);

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut joins = Vec::new();
    let mut rounds = Vec::new();
    let mut steps_ms = Vec::new();
    let mut per_round = (0u32, 0u64, 0.0f64);
    let mut worker_rss: f64 = 0.0;
    for _ in 0..SESSIONS {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let t0 = Instant::now();
        let workers = Workers::spawn(w, addr, &path)?;
        let (coord, join_s) = tr.timed("distributed.join", || Coordinator::accept(&listener, w));
        let mut coord = coord.map_err(|e| format!("accept: {e}"))?;
        joins.push(join_s);
        // Workers place and mesh before they read their first job; a job
        // that halts after one empty superstep marks the point where
        // real supersteps can start.
        let mut warmup = Vec::new();
        run_job(
            &mut coord,
            n,
            ClusterAlgo::Bfs { source: idle },
            &mut warmup,
            ctx,
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        ctx.note("set up");

        let deadline = Instant::now() + ctx.session_budget();
        loop {
            let r0 = Instant::now();
            let mut results = Vec::new();
            for &algo in &jobs {
                results.push((algo, run_job(&mut coord, n, algo, &mut steps_ms, ctx)?));
                out.attempted += 1;
            }
            tr.record("round", r0, Instant::now());
            rounds.push(r0.elapsed().as_secs_f64());
            per_round = (0, 0, 0.0);
            for ((algo, (values, steps, sent)), want) in results.into_iter().zip(&local) {
                per_round.0 += steps;
                per_round.1 += sent;
                per_round.2 += sync_bytes(steps, sent, w);
                let verdict = match algo {
                    ClusterAlgo::PageRank { .. } => {
                        let ranks: Vec<f64> = values.iter().map(|&b| f64::from_bits(b)).collect();
                        check::check_equal("cluster pr vs run_local_on", &values, &want.values).and(
                            check::check_close("cluster pr", &ranks, &pr_power, 1e-9, 0.0),
                        )
                    }
                    ClusterAlgo::Bfs { .. } => check::check_equal("cluster bfs", &values, &levels),
                    ClusterAlgo::Cc => check::check_equal("cluster cc", &values, &labels),
                };
                if let Err(e) = verdict {
                    out.errors.push(e);
                }
                if steps != want.supersteps || sent != want.values_sent {
                    out.errors.push(format!(
                        "cluster {}: {steps} supersteps / {sent} values, run_local_on took {} / {}",
                        algo.name(),
                        want.supersteps,
                        want.values_sent
                    ));
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        coord
            .broadcast(&Msg::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        worker_rss = worker_rss.max(workers.join()?);
        ctx.note("session done");
    }
    out.e2e.setup_s = median(&setups);
    out.e2e.run_s = median(&rounds);
    out.e2e.throughput_rps = out.attempted as f64 / rounds.iter().sum::<f64>();
    out.e2e.peak_rss_mb = peak_rss_mb().max(worker_rss);

    if tr.enabled() {
        out.layer("distributed.place_s", place_s);
        out.layer("distributed.join_s", median(&joins));
        out.layer("distributed.local_run_s", local_s);
        out.layer("distributed.wire_s", out.e2e.run_s - local_s);
        out.layer("distributed.supersteps", per_round.0 as f64);
        out.layer("distributed.values_sent", per_round.1 as f64);
        out.layer("distributed.sync_bytes", per_round.2);
        out.layer("distributed.replication_factor", replication);
        out.layer("distributed.barrier_p50_ms", median(&steps_ms));
    }
    Ok(out)
}
