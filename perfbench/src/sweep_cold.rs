//! `sweep_cold`: the seed's slack_sq sweep dispatched by `run_cluster`
//! with default options over two in-process `rmt-serve` servers (one
//! worker thread each) whose caches start empty, so all 60 units miss,
//! simulate and are written to the cache.
//!
//! About half the wall-clock is poll pacing, and quick-scale cells
//! expose workload generation, so dispatch, long-poll, work-stealing,
//! cache-path and generation changes show here.

use crate::common::{
    alternate, is_commit_counter, median_setup, overhead, seeded_sweep, sum_counters, timed, units,
    Fleet, Outcome, RunCfg, Unit,
};
use crate::expect::Expected;
use crate::probe;
use crate::trace::{self, Ctx, Row, Span};
use rmt_cluster::{run_cluster, ClusterOptions};
use rmt_core::device::LogicalThread;
use rmt_serve::ServerConfig;
use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_sim::Experiment;
use rmt_stats::Json;
use rmt_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Servers in the fleet; with one worker thread each they use both
/// host CPUs.
const SERVERS: usize = 2;
/// Fewest sweeps a run makes: the per-sweep medians and the p95 latency
/// tail (at least 200 unit completions) need them.
const MIN_SWEEPS: usize = 5;
/// Set-up repetitions whose median `setup_s` reports.
const SETUP_REPS: usize = 15;
/// The latency tail is reported at this percentile.
pub const TAIL: f64 = 95.0;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// The set-up step: parse and permute the sweep, expand it, start the
/// fleet. Each measured sweep then starts a fleet of its own, so that its
/// caches are empty.
fn set_up(cfg: &RunCfg) -> Result<(ServiceRequest, Vec<Unit>, Fleet), String> {
    let sweep = seeded_sweep(cfg.seed)?;
    let units = units(&sweep);
    let fleet = Fleet::start(SERVERS, &server_config(), &cfg.scratch)?;
    Ok((sweep, units, fleet))
}

/// One sweep's measurements.
struct SweepRun {
    wall: f64,
    cpu: f64,
    /// Seconds from dispatch to each unit's completion.
    completions: Vec<f64>,
    cluster: Json,
    server_metrics: Vec<Json>,
}

/// Runs one cold sweep on `fleet` and checks the merged document.
fn sweep_once(
    sweep: &ServiceRequest,
    fleet: &Fleet,
    want: &str,
    cfg: &RunCfg,
    ctx: Ctx<'_>,
    out: &mut Outcome,
    units: usize,
) -> Result<SweepRun, String> {
    let t = &cfg.tracer;
    if t.enabled() {
        t.replay(ctx, "cluster.expand", || drop(ClusterPlan::expand(sweep)));
    }
    let addrs = fleet.addrs();
    let done: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let opts = {
        let done = Arc::clone(&done);
        ClusterOptions {
            // Observation only: timestamps each unit's completion.
            on_progress: Some(Arc::new(move |_, _| {
                done.lock()
                    .expect("completion mutex")
                    .push(t0.elapsed().as_secs_f64());
            })),
            ..ClusterOptions::default()
        }
    };
    let (result, wall, cpu) =
        timed(|| t.span(ctx, "cluster.run", |_| run_cluster(sweep, &addrs, &opts)))?;
    let mut cluster = Json::Null;
    match result {
        Ok(outcome) => {
            cluster = outcome.cluster.clone();
            let check = t.span(ctx, "bench.check", |_| {
                let got = rmt_stats::digest::digest(&outcome.merged);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("merged sweep digest {got}, expected {want}"))
                }
            });
            for _ in 0..units {
                out.count(check.clone());
            }
        }
        Err(e) => {
            for _ in 0..units {
                out.count(Err(format!("run_cluster: {e}")));
            }
        }
    }
    let server_metrics = if t.enabled() {
        t.span(ctx, "bench.metrics", |_| fleet.metrics())?
    } else {
        Vec::new()
    };
    let completions = done.lock().expect("completion mutex").clone();
    Ok(SweepRun {
        wall,
        cpu,
        completions,
        cluster,
        server_metrics,
    })
}

/// Cold sweeps until `seconds` have elapsed (and at least `min`), each
/// on a freshly started fleet.
fn sweeps(
    sweep: &ServiceRequest,
    unit_count: usize,
    want: &str,
    cfg: &RunCfg,
    seconds: f64,
    min: usize,
    out: &mut Outcome,
) -> Result<(Vec<SweepRun>, f64), String> {
    let t = &cfg.tracer;
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || start.elapsed().as_secs_f64() < seconds {
        let run = t.span(Ctx::root("sweep_cold", 0), "bench.pass", |ctx| {
            let fleet = t.span(ctx, "serve.start", |_| {
                Fleet::start(SERVERS, &server_config(), &cfg.scratch)
            })?;
            let run = sweep_once(sweep, &fleet, want, cfg, ctx, out, unit_count);
            t.span(ctx, "serve.stop", |_| fleet.stop());
            run
        })?;
        runs.push(run);
    }
    Ok((runs, start.elapsed().as_secs_f64()))
}

/// The merged document's expected digest. The reference is the
/// single-process sweep, which the cluster merge must reproduce bitwise.
fn expected_digest(
    seed: u64,
    sweep: &ServiceRequest,
    expected: &mut Expected,
) -> Result<String, String> {
    expected.get_or_compute(&format!("sweep_cold/seed={seed}"), || {
        sweep.execute(SERVERS, None)
    })
}

/// Computes the seed's expected digest (the `--record` mode).
///
/// # Errors
///
/// The sweep file is invalid or the sweep fails to simulate.
pub fn record(seed: u64, expected: &mut Expected) -> Result<(), String> {
    expected_digest(seed, &seeded_sweep(seed)?, expected).map(drop)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (a failing sweep counts its units as failed cells).
pub fn run(cfg: &RunCfg, expected: &mut Expected) -> Result<Outcome, String> {
    let ((sweep, units, fleet), setup_s) =
        median_setup(SETUP_REPS, || set_up(cfg), |(_, _, f)| f.stop())?;
    fleet.stop();
    let want = expected_digest(cfg.seed, &sweep, expected)?;
    let mut out = Outcome::default();
    if !cfg.tracer.enabled() {
        let (runs, _) = sweeps(
            &sweep,
            units.len(),
            &want,
            cfg,
            cfg.seconds,
            MIN_SWEEPS,
            &mut out,
        )?;
        let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
        let cpus: Vec<f64> = runs.iter().map(|r| r.cpu).collect();
        let lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.completions.iter().map(|s| s * 1e3))
            .collect();
        let (_, tail) = probe::tail(&lat, TAIL).ok_or("too few units for a latency tail")?;
        out.metrics = vec![
            ("setup_s", setup_s),
            (
                "cells_per_s",
                units.len() as f64 / probe::median(&walls).unwrap_or(f64::NAN),
            ),
            ("cpu_s", probe::median(&cpus).unwrap_or(f64::NAN)),
            ("peak_rss_mb", probe::peak_rss_mb()?),
            ("latency_p50_ms", probe::median(&lat).unwrap_or(f64::NAN)),
            ("latency_tail_ms", tail),
        ];
    } else {
        traced(&sweep, &units, &want, cfg, &mut out)?;
    }
    Ok(out)
}

/// Simulated work of one unit in the in-process replay.
struct UnitWork<'a> {
    digest: &'a str,
    /// A Base-machine baseline unit (the rest run the sweep's SRT base).
    base: bool,
    cycles: u64,
    commits: u64,
}

fn traced(
    sweep: &ServiceRequest,
    units: &[Unit],
    want: &str,
    cfg: &RunCfg,
    out: &mut Outcome,
) -> Result<(), String> {
    let quiet = cfg.quiet();
    let mut runs = Vec::new();
    let (walls0, walls1) = alternate(cfg.seconds, |traced| {
        let c = if traced { cfg } else { &quiet };
        let (mut r, wall) = sweeps(sweep, units.len(), want, c, 0.0, 1, out)?;
        if traced {
            runs.append(&mut r);
        }
        Ok(wall)
    })?;
    let wall1: f64 = walls1.iter().sum();
    let n = runs.len() as f64;
    let spans_phase = cfg.tracer.spans();
    let st = trace::self_times(&spans_phase);
    let get = |k: &str| st.get(k).copied().unwrap_or(0.0) / n;
    let run_s = get("cluster.run");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("cluster.run_s", run_s);
    m.insert("cluster.expand_s", get("cluster.expand"));
    // Per-sweep mean of the cluster counters matching `pred`.
    let cluster_sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        runs.iter()
            .map(|r| {
                let metrics = r.cluster.get("metrics").cloned().unwrap_or(Json::Null);
                sum_counters(&metrics, pred) as f64
            })
            .sum::<f64>()
            / n
    };
    let per_worker = |field: &'static str| {
        cluster_sum(&move |k: &str| k.starts_with("cluster/worker") && k.ends_with(field))
    };
    let dispatched = per_worker("/dispatched");
    m.insert("cluster.dispatched", dispatched);
    m.insert("cluster.retried", per_worker("/retried"));
    m.insert("cluster.stolen", per_worker("/stolen"));
    m.insert(
        "cluster.duplicate_results",
        cluster_sum(&|k: &str| k == "cluster/duplicate_results"),
    );
    m.insert("cluster.useful_frac", units.len() as f64 / dispatched);
    let server_sum = |name: &str| -> f64 {
        runs.iter()
            .flat_map(|r| r.server_metrics.iter())
            .map(|doc| sum_counters(doc, |k| k == name) as f64)
            .sum::<f64>()
            / n
    };
    m.insert(
        "serve.polls_per_cell",
        server_sum("serve/requests/jobs") / units.len() as f64,
    );
    m.insert("serve.cache_misses", server_sum("serve/cache/misses"));

    // The units again, in-process and one at a time: their compute time
    // and the layers inside it, which the servers' threads hide.
    let t = &cfg.tracer;
    let mut works: Vec<UnitWork> = Vec::new();
    for u in units {
        let ServiceRequest::Run(r) = &u.request else {
            return Err("sweep units are run requests".into());
        };
        let exp = Experiment::from_spec(r.spec.clone())
            .benchmarks(&r.benches)
            .seed(r.scale.seed)
            .warmup(r.scale.warmup)
            .measure(r.scale.measure);
        let doc = t.span(Ctx::root(&u.digest, 0), "bench.unit", |c| {
            let threads: Vec<LogicalThread> = t.replay(c, "workloads.generate", || {
                r.benches
                    .iter()
                    .map(|&b| LogicalThread::from(&Workload::generate(b, r.scale.seed)))
                    .collect()
            });
            t.replay(c, "core.build", || exp.build_device_with(threads).map(drop))
                .map_err(|e| e.to_string())?;
            let doc = t.span(c, "sim.execute", |_| u.request.execute(1, None))?;
            t.span(c, "stats.encode", |_| drop(doc.encode_pretty()));
            Ok::<_, String>(doc)
        })?;
        let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
        works.push(UnitWork {
            digest: &u.digest,
            base: doc.get("kind").and_then(Json::as_str) == Some("Base"),
            cycles: sum_counters(&metrics, |k| k == "device/cycles"),
            commits: sum_counters(&metrics, is_commit_counter),
        });
    }
    let rs: Vec<Span> = t
        .spans()
        .into_iter()
        .filter(|s| !spans_phase.iter().any(|p| p.id == s.id))
        .collect();
    let rst = trace::self_times(&rs);
    let rget = |k: &str| rst.get(k).copied().unwrap_or(0.0);
    let exec = trace::total(&rs, "sim.execute");
    let loop_s = exec - rget("workloads.generate") - rget("core.build");
    let cycles: u64 = works.iter().map(|w| w.cycles).sum();
    let commits: u64 = works.iter().map(|w| w.commits).sum();
    let base: Vec<&str> = works.iter().filter(|w| w.base).map(|w| w.digest).collect();
    let base_commits: u64 = works.iter().filter(|w| w.base).map(|w| w.commits).sum();
    let base_loop = trace::loop_secs(&rs, |id| base.contains(&id));
    m.insert("sim.unit_compute_s", exec);
    m.insert("serve.idle_frac", 1.0 - exec / (run_s * SERVERS as f64));
    m.insert("workloads.generate_s", rget("workloads.generate"));
    m.insert("core.build_s", rget("core.build"));
    m.insert("stats.encode_s", rget("stats.encode"));
    m.insert("pipeline.loop_s", loop_s);
    m.insert("pipeline.cycles_per_s", cycles as f64 / loop_s);
    m.insert(
        "pipeline.commits_per_s.base",
        base_commits as f64 / base_loop,
    );
    m.insert(
        "pipeline.commits_per_s.srt",
        (commits - base_commits) as f64 / (loop_s - base_loop),
    );
    m.insert("sim.sim_cycles", cycles as f64);
    m.insert("sim.commits", commits as f64);

    let wall = wall1 / n;
    let compute = exec / SERVERS as f64;
    let rows = vec![
        Row::new(
            "cluster.run: compute",
            compute.min(run_s),
            "unit compute per server, from the in-process replay",
        ),
        Row::new(
            "cluster.run: idle",
            (run_s - compute).max(0.0),
            "poll pacing, dispatch, HTTP, cache, merge",
        ),
        Row::new(
            "cluster.expand",
            get("cluster.expand"),
            "replayed before cluster.run: tracing overhead",
        ),
        Row::new("serve.start", get("serve.start"), "fresh fleet per sweep"),
        Row::new("serve.stop", get("serve.stop"), "drain and join"),
        Row::new(
            "bench.check",
            get("bench.check"),
            "merged digest comparison",
        ),
        Row::new(
            "bench.metrics",
            get("bench.metrics"),
            "GET /metrics per server",
        ),
    ];
    let unattributed = wall - rows.iter().map(|r| r.secs).sum::<f64>();
    m.insert("trace.unattributed_frac", unattributed / wall);
    m.insert("trace.overhead_frac", overhead(&walls0, &walls1));
    out.waterfall = trace::waterfall(
        &format!(
            "sweep_cold: {} traced sweep(s) of {wall:.3} s (mean); untraced sweeps {:.3} s (median)",
            runs.len(),
            probe::median(&walls0).unwrap_or(f64::NAN)
        ),
        wall,
        &rows,
        unattributed,
    );
    out.metrics = m.into_iter().collect();
    Ok(())
}
