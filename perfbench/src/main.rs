//! `perfbench`: one command, five workloads, end-to-end and per-layer
//! metrics for the VEBO workspace. See README.md for what each workload
//! measures and why.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod analytics;
mod check;
mod cluster;
mod inputs;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vebo_engine::{ExecMode, SystemProfile};
use vebo_partition::EdgeOrder;

use analytics::Source;
use inputs::Scale;
use util::{metric, metrics_json, Metric, Tracer};

/// Set-ups per run: `setup_s` is their median, and the measured time is
/// split evenly between them.
pub const SESSIONS: u32 = 3;

pub const WORKLOADS: [&str; 5] = [
    "analytics-skew",
    "analytics-road",
    "serve-read",
    "serve-churn",
    "cluster-bsp",
];

/// Every per-layer metric with its unit; a traced run reports each, 0
/// where its workload does not exercise the layer.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("graph.load_s", "s"),
    ("graph.permute_s", "s"),
    ("core.vebo_s", "s"),
    ("core.edge_spread", "count"),
    ("core.vertex_spread", "count"),
    ("engine.prepare_s", "s"),
    ("engine.edge_map_calls", "count"),
    ("engine.edges_traversed", "count"),
    ("engine.task_imbalance", "ratio"),
    ("engine.seq_run_s", "s"),
    ("engine.rayon_run_s", "s"),
    ("engine.parallel_speedup", "ratio"),
    ("engine.sim_makespan_ms", "ms"),
    ("engine.sim_ratio", "ratio"),
    ("algorithms.bc_s", "s"),
    ("algorithms.cc_s", "s"),
    ("algorithms.pr_s", "s"),
    ("algorithms.bfs_s", "s"),
    ("algorithms.prd_s", "s"),
    ("algorithms.spmv_s", "s"),
    ("algorithms.bf_s", "s"),
    ("algorithms.bp_s", "s"),
    ("serve.engine_new_s", "s"),
    ("serve.exec_label_us", "us"),
    ("serve.exec_bfs_ms", "ms"),
    ("serve.exec_pr_ms", "ms"),
    ("serve.exec_prd_ms", "ms"),
    ("serve.exec_add_us", "us"),
    ("serve.exec_del_ms", "ms"),
    ("serve-net.read_p50_ms", "ms"),
    ("serve-net.read_p99_ms", "ms"),
    ("serve-net.write_p50_ms", "ms"),
    ("serve-net.write_p95_ms", "ms"),
    ("serve-net.frontdoor_us", "us"),
    ("serve-net.batch_mean", "count"),
    ("serve-net.executions", "count"),
    ("engine.shard_occupancy", "ratio"),
    ("engine.shard_steals", "count"),
    ("graph.compactions", "count"),
    ("graph.compaction_p50_ms", "ms"),
    ("graph.compaction_busy_s", "s"),
    ("graph.log_depth_max", "count"),
    ("distributed.place_s", "s"),
    ("distributed.join_s", "s"),
    ("distributed.local_run_s", "s"),
    ("distributed.wire_s", "s"),
    ("distributed.supersteps", "count"),
    ("distributed.values_sent", "count"),
    ("distributed.sync_bytes", "bytes"),
    ("distributed.replication_factor", "ratio"),
    ("distributed.barrier_p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// What every run of every workload prints with `--trace 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time (see README.md for what each workload counts).
    pub setup_s: f64,
    /// Median wall time of one round of the workload's fixed operations.
    pub run_s: f64,
    /// Operations completed per second of measured time.
    pub throughput_rps: f64,
    /// Peak resident memory of the workload's processes.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("run_s", self.run_s, "s"),
            metric("throughput_rps", self.throughput_rps, "1/s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// A workload's result before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check that did not hold; empty means correct.
    pub errors: Vec<String>,
    pub e2e: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records the median of a span as the metric `<span>_s`.
    pub fn layer_secs(&mut self, span: &str, secs: f64) {
        let name = format!("{span}_s");
        let listed = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.layers.insert(listed.0, secs);
    }
}

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: Tracer,
    /// Generated inputs and trace files, inside the checkout.
    pub workdir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// Measured time per set-up session.
    pub fn session_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / SESSIONS as f64)
    }

    /// Progress on stderr, with the time since the run started.
    pub fn note(&self, what: &str) {
        eprintln!(
            "[{:7.2}s] {} {what}",
            self.started.elapsed().as_secs_f64(),
            self.workload
        );
    }

    pub fn input_name(&self) -> String {
        let size = if self.scale.smoke { "smoke" } else { "full" };
        format!("{}-{}-{size}", self.workload, self.seed)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(a)
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (seed, scale) = (ctx.seed, ctx.scale);
    let generate = |f: fn(u64, Scale) -> vebo_graph::Graph| {
        let g = f(seed, scale);
        ctx.note(&format!(
            "generated n={} m={}",
            g.num_vertices(),
            g.num_edges()
        ));
        g
    };
    match ctx.workload.as_str() {
        "analytics-skew" => analytics::run(
            ctx,
            generate(inputs::skew_graph),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
            ExecMode::Parallel,
            Source::MaxOutDegree,
        ),
        "analytics-road" => analytics::run(
            ctx,
            generate(inputs::road_graph),
            SystemProfile::ligra_like(),
            // The rayon shim spawns threads on every call, and on a shared
            // 2-vCPU host that cost swings threefold from call to call and
            // run to run; the sharded backend's long-lived workers keep
            // per-call dispatch cost in the measurement without that
            // noise. The rayon suite time is reported per layer.
            ExecMode::Sharded {
                shards: util::nproc(),
            },
            Source::MeshCentre,
        ),
        "serve-read" => serve::run(ctx, generate(inputs::serve_graph), false),
        "serve-churn" => serve::run(ctx, generate(inputs::serve_graph), true),
        "cluster-bsp" => cluster::run(ctx, generate(inputs::cluster_graph)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// A run that has not ended well within the time a run may take is
/// stopped rather than left hanging (a worker that never joins would
/// otherwise block the coordinator forever).
fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        if let [_, addr, graph] = argv.as_slice() {
            if let Err(e) = cluster::worker_main(addr, graph) {
                eprintln!("perfbench worker: {e}");
                std::process::exit(1);
            }
            return;
        }
        eprintln!("usage: perfbench --worker <coordinator addr> <graph.vgr>");
        std::process::exit(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    start_watchdog(Duration::from_secs(170));
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale { smoke: args.smoke },
        tracer: Tracer::new(args.trace),
        workdir: PathBuf::from(".perfbench"),
        started: Instant::now(),
    };
    let outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    // The input is only needed within the run; seeds vary between runs,
    // so keeping each one would fill the checkout.
    let _ = std::fs::remove_file(ctx.workdir.join(format!("{}.vgr", ctx.input_name())));
    for e in &outcome.errors {
        eprintln!("perfbench {}: check failed: {e}", ctx.workload);
    }
    let metrics = if args.trace {
        let mut layers = outcome.layers.clone();
        layers.insert("trace.spans", ctx.tracer.span_count() as f64);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        outcome.e2e.metrics()
    };
    let info = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"machine\":{}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        args.trace,
        args.smoke,
        util::machine_json()
    );
    if args.trace {
        let path = ctx.workdir.join(format!("trace-{}.json", ctx.input_name()));
        let body = format!(
            "{{\"info\":{info},\"metrics\":{},\"spans\":{}}}\n",
            metrics_json(&metrics),
            ctx.tracer.spans_json()
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("perfbench: write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{info}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let mut want: Vec<&str> = WORKLOADS.to_vec();
        want.extend(EndToEnd::default().metrics().iter().map(|m| m.name));
        want.extend(PER_LAYER.iter().map(|(n, _)| *n));
        assert_eq!(names, want);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload serve-read --seed 3 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload serve-read --seed 3 --seconds 0 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload serve-read --seed 3 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve-read --seed")).is_err());
    }
}
