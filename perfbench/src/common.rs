//! Pieces the workloads share: the run's configuration and result, the
//! seeded inputs, and in-process `rmt-serve` fleets.

use crate::probe;
use crate::trace::Tracer;
use rmt_serve::{Client, Server, ServerConfig, ServerHandle};
use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_stats::{Json, Xoshiro256};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One invocation's settings.
#[derive(Debug)]
pub struct RunCfg {
    /// Workload seed: everything a run feeds the program derives from it.
    pub seed: u64,
    /// Measuring time. A traced run alternates untraced and traced
    /// passes over it.
    pub seconds: f64,
    /// Spans around every layer call, for the per-layer metrics.
    pub tracer: Tracer,
    /// Scratch directory for this run's cache directories and outputs.
    pub scratch: PathBuf,
}

impl RunCfg {
    /// The same run without tracing.
    pub fn quiet(&self) -> RunCfg {
        RunCfg {
            seed: self.seed,
            seconds: self.seconds,
            tracer: Tracer::new(false),
            scratch: self.scratch.clone(),
        }
    }
}

/// Alternates an untraced and a traced pass until `seconds` have
/// elapsed (at least one pair), so both sides see the same host
/// conditions. `pass(traced)` runs one pass and returns its wall
/// seconds; the result is the untraced and the traced walls.
///
/// # Errors
///
/// The first error a pass returns.
pub fn alternate(
    seconds: f64,
    mut pass: impl FnMut(bool) -> Result<f64, String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let start = Instant::now();
    let (mut q, mut t) = (Vec::new(), Vec::new());
    while q.is_empty() || start.elapsed().as_secs_f64() < seconds {
        q.push(pass(false)?);
        t.push(pass(true)?);
    }
    Ok((q, t))
}

/// Tracing overhead: median traced pass over median untraced pass, less
/// one.
pub fn overhead(quiet: &[f64], traced: &[f64]) -> f64 {
    match (probe::median(traced), probe::median(quiet)) {
        (Some(t), Some(q)) => t / q - 1.0,
        _ => f64::NAN,
    }
}

/// What a workload reports: the cells it attempted and failed, plus its
/// metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells (simulations, sweep units or requests) attempted.
    pub attempted: u64,
    /// Of those, how many errored or returned a wrong result.
    pub failed: u64,
    /// End-to-end (untraced run) or per-layer (traced run) metrics.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable self-time waterfall (traced runs).
    pub waterfall: String,
}

impl Outcome {
    /// Counts one cell, failed if `ok` is false (with the reason logged).
    pub fn count(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            eprintln!("perfbench: failed cell: {e}");
        }
    }
}

/// The benchmark's directory (`perfbench/`), from which it finds the
/// repository's inputs and under which it writes its outputs.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The `sweeps/slack_sq.json` sweep at quick scale, with its benchmark
/// list, axis order and each axis's value order permuted by `seed`. Every
/// seed runs the same 60 distinct simulations; the seed changes the
/// order they are planned, dispatched and merged in (and so the merged
/// document), not how much work they are.
///
/// # Errors
///
/// The sweep file is missing or invalid.
pub fn seeded_sweep(seed: u64) -> Result<ServiceRequest, String> {
    let path = bench_dir().join("../sweeps/slack_sq.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut sweep = rmt_stats::json::parse(&text).map_err(|e| format!("slack_sq.json: {e}"))?;
    let mut rng = Xoshiro256::seed_from(seed);
    let mut benches = sweep
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("slack_sq.json lacks `benches`")?
        .to_vec();
    shuffle(&mut benches, &mut rng);
    let mut axes = sweep
        .get("axes")
        .and_then(Json::as_array)
        .ok_or("slack_sq.json lacks `axes`")?
        .to_vec();
    shuffle(&mut axes, &mut rng);
    for axis in &mut axes {
        let mut values = axis
            .get("values")
            .and_then(Json::as_array)
            .ok_or("a slack_sq.json axis lacks `values`")?
            .to_vec();
        shuffle(&mut values, &mut rng);
        axis.set("values", Json::Arr(values));
    }
    sweep.set("benches", Json::Arr(benches));
    sweep.set("axes", Json::Arr(axes));
    let doc = Json::obj()
        .with("type", Json::Str("sweep".into()))
        .with("sweep", sweep)
        .with("scale", Json::Str("quick".into()));
    ServiceRequest::from_json(&doc)
}

/// One distinct simulation of a sweep: the run request, its digest and
/// the bytes a client posts for it.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Content digest of the run request.
    pub digest: String,
    /// The run request.
    pub request: ServiceRequest,
    /// Canonical request document, encoded as `rmt-cluster` posts it.
    pub payload: String,
}

/// The distinct units of `sweep`, in plan order.
pub fn units(sweep: &ServiceRequest) -> Vec<Unit> {
    let plan = ClusterPlan::expand(sweep);
    let mut out: Vec<Unit> = Vec::new();
    for cell in plan.cells {
        if out.iter().all(|u| u.digest != cell.digest) {
            let mut payload = cell.request.canonical_json().encode_pretty();
            payload.push('\n');
            out.push(Unit {
                digest: cell.digest,
                request: cell.request,
                payload,
            });
        }
    }
    out
}

/// `rmt-serve` servers running in this process, each over its own fresh
/// cache directory.
#[derive(Debug)]
pub struct Fleet {
    servers: Vec<ServerHandle>,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    /// Starts `n` servers from `base` (which supplies everything but the
    /// cache directory), each on a fresh directory under `scratch`.
    ///
    /// # Errors
    ///
    /// Bind or directory failures.
    pub fn start(
        n: usize,
        base: &ServerConfig,
        scratch: &std::path::Path,
    ) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            servers: Vec::new(),
            dirs: Vec::new(),
        };
        for _ in 0..n {
            let dir = fresh_dir(scratch)?;
            let cfg = ServerConfig {
                cache_dir: dir.clone(),
                ..base.clone()
            };
            fleet.dirs.push(dir);
            let handle = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
            fleet.servers.push(handle);
        }
        Ok(fleet)
    }

    /// `host:port` of every server.
    pub fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    /// Each server's `GET /metrics` document.
    ///
    /// # Errors
    ///
    /// A server did not answer with valid JSON.
    pub fn metrics(&self) -> Result<Vec<Json>, String> {
        self.addrs()
            .iter()
            .map(|a| {
                let resp = Client::new(a)
                    .get("/metrics")
                    .map_err(|e| format!("GET /metrics: {e}"))?;
                rmt_stats::json::parse(&resp.text()).map_err(|e| format!("/metrics: {e}"))
            })
            .collect()
    }

    /// Drains and joins every server, then deletes the cache directories.
    pub fn stop(self) {
        for s in self.servers {
            s.stop();
        }
        for d in self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// A new, empty, uniquely named cache directory under `scratch`.
fn fresh_dir(scratch: &std::path::Path) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = scratch.join(format!("cache-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs `f` and returns its result with the wall seconds and process CPU
/// seconds it took.
///
/// # Errors
///
/// CPU time cannot be read.
pub fn timed<T>(f: impl FnOnce() -> T) -> Result<(T, f64, f64), String> {
    let cpu0 = probe::cpu_seconds()?;
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    Ok((out, wall, probe::cpu_seconds()? - cpu0))
}

/// Repeats a set-up step `reps` times and returns the median of its
/// host-normalised seconds, keeping the last repetition's product. Each
/// repetition is normalised by a reference chunk run just before it
/// (set-up is CPU-bound; see `probe::reference_chunk`).
///
/// # Errors
///
/// The first error `step` returns.
pub fn median_setup<T>(
    reps: usize,
    mut step: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let factor = probe::REFERENCE_NOMINAL_S / probe::reference_chunk();
        let t0 = Instant::now();
        last = Some(step()?);
        times.push(t0.elapsed().as_secs_f64() * factor);
    }
    let setup = probe::median(&times).ok_or("no set-up repetitions")?;
    Ok((last.ok_or("no set-up repetitions")?, setup))
}

/// Polls a queued job on `client` until it is done.
///
/// # Errors
///
/// The job failed, vanished, or the server stopped answering.
pub fn wait_job(client: &mut Client, job: &str) -> Result<(), String> {
    loop {
        let resp = client
            .get(&format!("/v1/jobs/{job}"))
            .map_err(|e| format!("poll {job}: {e}"))?;
        let doc = rmt_stats::json::parse(&resp.text()).map_err(|e| format!("poll {job}: {e}"))?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(()),
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(2)),
            other => return Err(format!("job {job} ended as {other:?}: {}", resp.text())),
        }
    }
}

/// Whether a result document's metric counts one hardware thread's
/// committed instructions (`core<i>/thread<j>/committed`).
pub fn is_commit_counter(name: &str) -> bool {
    name.starts_with("core") && name.contains("/thread") && name.ends_with("/committed")
}

/// Sum over keys of a `/metrics`-style flat document whose name matches
/// `pred`, as integers.
pub fn sum_counters(doc: &Json, pred: impl Fn(&str) -> bool) -> u64 {
    doc.members()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| pred(k))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}
