//! Measurement plumbing shared by every workload: the span tracer, order
//! statistics, peak resident memory, machine facts and the JSON result
//! line.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a named interval, the span that was open on the
/// same thread when it began, and its bounds in nanoseconds since the
/// tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    static OPEN_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Spans kept in memory and written out when the run ends. A disabled
/// tracer records nothing, so the untraced runs that give the end-to-end
/// figures pay only for the clock reads the figures need anyway.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its value and its wall time in seconds; when
    /// tracing, records the interval as a span named `name` whose parent
    /// is the span open on this thread.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPAN.with(|c| c.replace(id));
        let out = f();
        let end = Instant::now();
        OPEN_SPAN.with(|c| c.set(parent));
        self.push(name, id, parent, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Records an interval measured elsewhere (a client round trip whose
    /// start and end were taken around a blocking call).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = OPEN_SPAN.with(|c| c.get());
            self.push(name, id, parent, start, end);
        }
    }

    fn push(&self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("tracer lock poisoned").push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Median duration of the spans named `name`, 0 when none ran.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Every span, as a JSON array of `[id, parent, name, start_ns, end_ns]`.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},\"{}\",{},{}]",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// High-water resident memory of this process image, in MiB: `VmHWM`
/// from `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, which
/// keeps the high-water mark of the image the process replaced at
/// `execve` (here `cargo`'s, right after a build), it counts only this
/// program. 0 where the file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Data cache sizes in KiB by level, from CPUID leaf 4 (x86-64 only).
pub fn cache_sizes_kib() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        for sub in 0..8 {
            let r = __cpuid_count(4, sub);
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            if kind == 2 {
                continue; // instruction cache
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
            let line = (r.ebx & 0xfff) as u64 + 1;
            let sets = r.ecx as u64 + 1;
            out.push((level, ways * parts * line * sets / 1024));
        }
    }
    out
}

/// Git revision of the working directory, or `unknown` outside a checkout
/// with history.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run's facts about the machine and the code, as a JSON object.
pub fn machine_json() -> String {
    let caches: Vec<String> = cache_sizes_kib()
        .iter()
        .map(|(l, k)| format!("\"L{l}_kib\":{k}"))
        .collect();
    format!(
        "{{\"git_revision\":\"{}\",\"nproc\":{},{}}}",
        git_revision(),
        nproc(),
        if caches.is_empty() {
            "\"caches\":\"unknown\"".to_string()
        } else {
            caches.join(",")
        }
    )
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push('}');
    out
}

/// SplitMix64: the benchmark's own seeded stream for request scripts and
/// probe choices, independent of the program's generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let t = Tracer::new(true);
        let ((), _) = t.timed("outer", || {
            t.timed("inner", || ());
        });
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        let off = Tracer::new(false);
        let (v, secs) = off.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.durations("x").is_empty());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
