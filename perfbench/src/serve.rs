//! The serving workloads: a `ServeEngine` on the sharded backend behind
//! serve-net's epoll `Server`, driven over loopback by `nproc` closed-loop
//! `NetClient` connections, each keeping one request outstanding.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vebo_bench::serve::{Request, ServeEngine};
use vebo_engine::{Executor, ShardMetrics, SystemProfile};
use vebo_graph::io::{load_graph, Format};
use vebo_graph::{Graph, VertexId};
use vebo_serve_net::{NetClient, Reply, Server, ServerConfig};

use crate::check::{self, EdgeSetModel};
use crate::inputs::{scripts, Mix, Scripts, PRD_ROUNDS};
use crate::util::{median, nproc, peak_rss_mb, quantile, SplitMix};
use crate::{Ctx, Outcome, SESSIONS};

/// Polymer is the serving daemon's default profile; its partitioned
/// accumulation makes `pr`/`prd` digests bit-identical across backends.
fn profile() -> SystemProfile {
    SystemProfile::polymer_like()
}

/// One client's view of a session: every round trip, by kind.
#[derive(Default)]
struct ClientLog {
    rounds: Vec<f64>,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    label_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn request_span(req: &Request) -> &'static str {
    match req {
        Request::Label { .. } => "client.label",
        Request::Bfs { .. } => "client.bfs",
        Request::PageRankSeed { .. } => "client.pr",
        Request::PageRankDelta { .. } => "client.prd",
        Request::AddEdge { .. } => "client.add",
        Request::DelEdge { .. } => "client.del",
    }
}

/// Expected digests of read replies where they are fixed: on the
/// read-only workload, every read; under churn, none (reads see whatever
/// epoch they pin), so only the settled graph is checked.
struct Expected {
    labels: Vec<u32>,
    bfs: HashMap<VertexId, u64>,
    seq: HashMap<Request, u64>,
}

impl Expected {
    fn new(g: &Graph, s: &Scripts) -> Expected {
        // pr/prd have no independent reference: the program promises
        // digests bit-identical to its in-process sequential engine.
        let seq_engine = ServeEngine::new(g.clone(), profile(), Executor::new(profile()));
        let mut seq = HashMap::new();
        for &seed in &s.pr_pool {
            let req = Request::PageRankSeed { seed };
            seq.insert(req, seq_engine.handle(&req).digest);
        }
        for rounds in PRD_ROUNDS {
            let req = Request::PageRankDelta { rounds };
            seq.insert(req, seq_engine.handle(&req).digest);
        }
        Expected {
            labels: check::union_find_labels(g),
            bfs: s.bfs_pool.iter().map(|&v| (v, bfs_digest(g, v))).collect(),
            seq,
        }
    }

    fn digest(&self, req: &Request) -> Option<u64> {
        match *req {
            Request::Label { v } => Some(check::fnv1a([self.labels[v as usize] as u64])),
            Request::Bfs { seed } => self.bfs.get(&seed).copied(),
            _ => self.seq.get(req).copied(),
        }
    }
}

fn bfs_digest(g: &Graph, v: VertexId) -> u64 {
    check::fnv1a(check::bfs_levels(g, v).into_iter().map(u64::from))
}

/// Runs whole rounds of `script` over `client` until `deadline`, at
/// least one.
fn client_loop(
    client: &mut NetClient,
    script: &[Request],
    deadline: Instant,
    expected: Option<&Expected>,
    ctx: &Ctx,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    loop {
        let r0 = Instant::now();
        for req in script {
            let t = Instant::now();
            client.send(req).map_err(|e| format!("send: {e}"))?;
            let reply = client.recv().map_err(|e| format!("recv: {e}"))?;
            let end = Instant::now();
            ctx.tracer.record(request_span(req), t, end);
            let ms = (end - t).as_secs_f64() * 1e3;
            log.attempted += 1;
            match reply {
                Reply::Ok { code, digest } => {
                    if code != req.code() {
                        log.errors
                            .push(format!("{}: reply for '{code}'", req.to_line()));
                    }
                    if let Some(want) = expected.and_then(|e| e.digest(req)) {
                        if digest != want {
                            log.errors.push(format!(
                                "{}: digest {digest:016x}, expected {want:016x}",
                                req.to_line()
                            ));
                        }
                    }
                }
                Reply::Busy | Reply::Err(_) => log.failed += 1,
            }
            if req.mutates() {
                log.write_ms.push(ms);
            } else {
                log.read_ms.push(ms);
                if matches!(req, Request::Label { .. }) {
                    log.label_ms.push(ms);
                }
            }
        }
        ctx.tracer.record("round", r0, Instant::now());
        log.rounds.push(r0.elapsed().as_secs_f64());
        if Instant::now() >= deadline {
            return Ok(log);
        }
    }
}

/// Sends each probe and returns the reply digests.
fn probe(addr: SocketAddr, reqs: &[Request]) -> Result<Vec<u64>, String> {
    let mut c = NetClient::connect(&addr.to_string(), Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    reqs.iter()
        .map(|r| {
            c.send(r).map_err(|e| format!("send: {e}"))?;
            match c.recv().map_err(|e| format!("recv: {e}"))? {
                Reply::Ok { digest, .. } => Ok(digest),
                other => Err(format!("{}: {other:?}", r.to_line())),
            }
        })
        .collect()
}

/// The set-semantics model of the churn scripts after `rounds[c]` rounds
/// of connection `c`. Connections own disjoint edges, so applying them
/// one after another gives the state any interleaving leaves.
fn churn_model(g: &Graph, s: &Scripts, rounds: &[usize]) -> EdgeSetModel {
    let mut model = EdgeSetModel::from_graph(g);
    for (script, &k) in s.rounds.iter().zip(rounds) {
        for _ in 0..k {
            for req in script {
                match *req {
                    Request::AddEdge { u, v } => model.add(u, v),
                    Request::DelEdge { u, v } => model.del(u, v),
                    _ => {}
                }
            }
        }
    }
    model
}

/// Median in-process `handle` time of `reqs`, in seconds.
fn handle_median(engine: &ServeEngine, reqs: &[Request]) -> f64 {
    let times: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let t = Instant::now();
            std::hint::black_box(engine.handle(r));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn add_metrics(total: &mut ShardMetrics, m: ShardMetrics) {
    total.batches += m.batches;
    total.batched_requests += m.batched_requests;
    total.batch_executions += m.batch_executions;
    total.compactions += m.compactions;
    total.compaction_nanos.extend(m.compaction_nanos);
    total.log_depth_max = total.log_depth_max.max(m.log_depth_max);
    if total.shards.len() < m.shards.len() {
        total.shards.resize(m.shards.len(), Default::default());
    }
    for (t, s) in total.shards.iter_mut().zip(m.shards) {
        t.tasks_run += s.tasks_run;
        t.tasks_stolen += s.tasks_stolen;
        t.busy_nanos += s.busy_nanos;
        t.wall_nanos += s.wall_nanos;
    }
}

pub fn run(ctx: &Ctx, g: Graph, churn: bool) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let path = crate::inputs::write_vgr(&ctx.workdir, &ctx.input_name(), &g)?;
    let conns = nproc();
    let mix = if churn { Mix::CHURN } else { Mix::READ };
    let s = scripts(&g, mix, conns, ctx.seed);
    let expected = (!churn).then(|| Expected::new(&g, &s));
    ctx.note("scripts and expected replies ready");
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut measured = Vec::new();
    let mut totals = ShardMetrics::default();
    let mut inproc: HashMap<&'static str, f64> = HashMap::new();

    for _ in 0..SESSIONS {
        let t0 = Instant::now();
        let (loaded, _) = tr.timed("graph.load", || {
            load_graph(&path, false, Some(Format::Binary))
        });
        let loaded = loaded
            .map_err(|e| format!("load {}: {e}", path.display()))?
            .0;
        let (mut engine, _) = tr.timed("serve.engine_new", || {
            ServeEngine::new(loaded, profile(), Executor::sharded(profile(), conns))
        });
        if churn {
            // The serving daemon's mode: mutations never wait for a merge.
            engine.set_compaction_blocking(false);
        }
        let engine = Arc::new(engine);
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = AtomicBool::new(false);
        let session = std::thread::scope(|scope| -> Result<(), String> {
            let srv = scope.spawn(|| server.run(Arc::clone(&engine), &stop));
            let result = (|| -> Result<(), String> {
                let mut clients = (0..conns)
                    .map(|_| NetClient::connect(&addr.to_string(), Duration::from_secs(5)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("connect: {e}"))?;
                setups.push(t0.elapsed().as_secs_f64());
                ctx.note("set up");

                let m0 = Instant::now();
                let deadline = m0 + ctx.session_budget();
                let joined: Vec<Result<ClientLog, String>> = std::thread::scope(|cs| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .zip(&s.rounds)
                        .map(|(c, script)| {
                            cs.spawn(|| client_loop(c, script, deadline, expected.as_ref(), ctx))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                        })
                        .collect()
                });
                measured.push(m0.elapsed().as_secs_f64());
                ctx.note("measured");
                let session_logs = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
                drop(clients);

                if churn {
                    engine.drain_compaction();
                    engine.compact_now();
                    let rounds: Vec<usize> = session_logs.iter().map(|l| l.rounds.len()).collect();
                    let model = churn_model(&g, &s, &rounds);
                    if let Err(e) = model.check_graph(&engine.dynamic().snapshot()) {
                        out.errors.push(e);
                    }
                    // Settled reads must answer for the model's graph.
                    let settled = model.to_graph(g.num_vertices());
                    let labels = check::union_find_labels(&settled);
                    let mut rng = SplitMix::new(ctx.seed ^ 0x5E77);
                    let mut probes: Vec<Request> = (0..64)
                        .map(|_| Request::Label {
                            v: rng.below(g.num_vertices() as u64) as VertexId,
                        })
                        .collect();
                    probes.extend(s.bfs_pool.iter().take(4).map(|&seed| Request::Bfs { seed }));
                    let got = probe(addr, &probes)?;
                    for (req, digest) in probes.iter().zip(got) {
                        let want = match *req {
                            Request::Label { v } => check::fnv1a([labels[v as usize] as u64]),
                            Request::Bfs { seed } => bfs_digest(&settled, seed),
                            _ => unreachable!("probes are label and bfs only"),
                        };
                        if digest != want {
                            out.errors.push(format!(
                                "settled {}: digest {digest:016x}, expected {want:016x}",
                                req.to_line()
                            ));
                        }
                    }
                }
                if tr.enabled() {
                    let labels: Vec<Request> = (0..256).map(|v| Request::Label { v }).collect();
                    inproc.insert("label", handle_median(&engine, &labels));
                    let bfs: Vec<Request> = s
                        .bfs_pool
                        .iter()
                        .take(8)
                        .map(|&seed| Request::Bfs { seed })
                        .collect();
                    inproc.insert("bfs", handle_median(&engine, &bfs));
                    let pr: Vec<Request> = s
                        .pr_pool
                        .iter()
                        .take(8)
                        .map(|&seed| Request::PageRankSeed { seed })
                        .collect();
                    inproc.insert("pr", handle_median(&engine, &pr));
                    let prd: Vec<Request> = PRD_ROUNDS
                        .iter()
                        .map(|&rounds| Request::PageRankDelta { rounds })
                        .collect();
                    inproc.insert("prd", handle_median(&engine, &prd));
                    if churn {
                        // Toggle absent pairs so the settled graph is untouched.
                        let n = g.num_vertices() as VertexId;
                        let pairs: Vec<(VertexId, VertexId)> = (0..16)
                            .map(|i| (i, n - 1 - i))
                            .filter(|&(u, v)| !g.out_neighbors(u).contains(&v))
                            .collect();
                        let adds: Vec<Request> = pairs
                            .iter()
                            .map(|&(u, v)| Request::AddEdge { u, v })
                            .collect();
                        let dels: Vec<Request> = pairs
                            .iter()
                            .map(|&(u, v)| Request::DelEdge { u, v })
                            .collect();
                        inproc.insert("add", handle_median(&engine, &adds));
                        inproc.insert("del", handle_median(&engine, &dels));
                    }
                }
                ctx.note("checked");
                logs.extend(session_logs);
                Ok(())
            })();
            stop.store(true, Ordering::SeqCst);
            let stats = srv
                .join()
                .map_err(|_| "server thread panicked".to_string())?;
            stats.map_err(|e| format!("server: {e}"))?;
            result
        });
        session?;
        engine.drain_compaction();
        add_metrics(&mut totals, engine.metrics());
    }

    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    out.errors
        .extend(logs.iter().flat_map(|l| l.errors.iter().cloned()));
    let rounds: Vec<f64> = logs.iter().flat_map(|l| l.rounds.iter().copied()).collect();
    out.e2e.setup_s = median(&setups);
    out.e2e.run_s = median(&rounds);
    out.e2e.throughput_rps = out.attempted as f64 / measured.iter().sum::<f64>();
    out.e2e.peak_rss_mb = peak_rss_mb();

    if tr.enabled() {
        let reads: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.read_ms.iter().copied())
            .collect();
        let writes: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.write_ms.iter().copied())
            .collect();
        let label_rt: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.label_ms.iter().copied())
            .collect();
        out.layer("serve-net.read_p50_ms", median(&reads));
        out.layer("serve-net.read_p99_ms", quantile(&reads, 0.99));
        out.layer("serve-net.write_p50_ms", median(&writes));
        out.layer("serve-net.write_p95_ms", quantile(&writes, 0.95));
        out.layer_secs("graph.load", tr.median("graph.load"));
        out.layer_secs("serve.engine_new", tr.median("serve.engine_new"));
        let us = |k: &str| inproc.get(k).copied().unwrap_or(0.0) * 1e6;
        out.layer("serve.exec_label_us", us("label"));
        out.layer("serve.exec_bfs_ms", us("bfs") / 1e3);
        out.layer("serve.exec_pr_ms", us("pr") / 1e3);
        out.layer("serve.exec_prd_ms", us("prd") / 1e3);
        out.layer("serve.exec_add_us", us("add"));
        out.layer("serve.exec_del_ms", us("del") / 1e3);
        out.layer(
            "serve-net.frontdoor_us",
            median(&label_rt) * 1e3 - us("label"),
        );
        if totals.batches > 0 {
            out.layer(
                "serve-net.batch_mean",
                totals.batched_requests as f64 / totals.batches as f64,
            );
        }
        out.layer("serve-net.executions", totals.batch_executions as f64);
        let occ: Vec<f64> = totals.shards.iter().map(|s| s.occupancy()).collect();
        out.layer(
            "engine.shard_occupancy",
            occ.iter().sum::<f64>() / occ.len().max(1) as f64,
        );
        out.layer(
            "engine.shard_steals",
            totals.shards.iter().map(|s| s.tasks_stolen).sum::<u64>() as f64,
        );
        out.layer("graph.compactions", totals.compactions as f64);
        let comp: Vec<f64> = totals
            .compaction_nanos
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect();
        out.layer("graph.compaction_p50_ms", median(&comp));
        out.layer("graph.compaction_busy_s", comp.iter().sum::<f64>() / 1e3);
        out.layer("graph.log_depth_max", totals.log_depth_max as f64);
    }
    Ok(out)
}
