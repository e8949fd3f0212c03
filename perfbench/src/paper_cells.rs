//! `paper_cells`: the paper's machines on its benchmarks, one cell at a
//! time, in-process, at standard scale.
//!
//! A pass runs the 24 cells {Base, SRT, CRT, Lock8} x {compress, gcc,
//! go, m88ksim, swim, vortex} through `ServiceRequest::execute(1, None)`
//! plus one sampled SRT cell per benchmark (`sample_checkpoints`, then
//! `run_sampled_with`). The cycle loop is almost all of a cell, and no
//! HTTP, queue or cache is involved, so kernel work shows here and
//! serving changes do not.
//!
//! The seed fixes the order cells run in and the sampled cells' window
//! positions (`SampleMode::Random`). The simulated programs stay the
//! paper's standard-scale seed-1 workloads: their simulation cost moves
//! by a third from one generation seed to the next, which would swamp
//! any change being measured.

use crate::common::{alternate, median_setup, overhead, shuffle, timed, Outcome, RunCfg};
use crate::expect::Expected;
use crate::probe;
use crate::trace::{self, Ctx, Row, Tracer};
use rmt_core::device::LogicalThread;
use rmt_core::spec::DeviceKind;
use rmt_sample::{SampleMode, SamplePlan};
use rmt_sim::service::ServiceRequest;
use rmt_sim::{Experiment, SampledResult, SimScale};
use rmt_stats::{Json, Xoshiro256};
use rmt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

const KINDS: [DeviceKind; 4] = [
    DeviceKind::Base,
    DeviceKind::Srt,
    DeviceKind::Crt,
    DeviceKind::Lock8,
];
const BENCHES: [&str; 6] = ["compress", "gcc", "go", "m88ksim", "swim", "vortex"];

/// Fewest passes a run makes: a per-cell median needs three samples to
/// drop one slowed by a burst of host contention.
const MIN_PASSES: usize = 3;
/// Set-up repetitions whose median `setup_s` reports.
const SETUP_REPS: usize = 15;
/// The latency tail is reported at this percentile (the highest with ten
/// samples beyond it at 60 cells).
pub const TAIL: f64 = 75.0;

enum Work {
    Standard(Box<ServiceRequest>),
    Sampled(SamplePlan),
}

struct Cell {
    /// `SRT/gcc` or `sampled/gcc`.
    name: String,
    /// Expected-digest key.
    key: String,
    /// Content digest of the cell's request: its trace id.
    trace_id: String,
    kind: DeviceKind,
    bench: Benchmark,
    exp: Experiment,
    work: Work,
}

/// Simulated work of one cell, exact and seed-determined.
#[derive(Debug, Default, Clone, Copy)]
struct SimWork {
    cycles: u64,
    commits: u64,
}

fn benchmark(name: &str) -> Benchmark {
    rmt_workloads::profile::ALL_BENCHMARKS
        .iter()
        .copied()
        .find(|b| b.name() == name)
        .expect("paper benchmark names are valid")
}

/// Builds the seed's cell list (the timed set-up step).
fn build_cells(seed: u64) -> Result<Vec<Cell>, String> {
    let scale = SimScale::standard();
    let mut cells = Vec::new();
    for kind in KINDS {
        for b in BENCHES {
            let doc = Json::obj()
                .with("type", Json::Str("run".into()))
                .with("spec", Json::Str(kind.name().into()))
                .with("benches", Json::Arr(vec![Json::Str(b.into())]))
                .with("scale", Json::Str("standard".into()));
            let req = ServiceRequest::from_json(&doc)?;
            let exp = Experiment::new(kind)
                .benchmark(benchmark(b))
                .seed(scale.seed)
                .warmup(scale.warmup)
                .measure(scale.measure);
            cells.push(Cell {
                name: format!("{}/{b}", kind.name()),
                key: format!("paper_cells/{}/{b}", kind.name()),
                trace_id: req.digest(),
                kind,
                bench: benchmark(b),
                exp,
                work: Work::Standard(Box::new(req)),
            });
        }
    }
    let plan = SamplePlan {
        mode: SampleMode::Random { seed },
        ..SamplePlan::default()
    };
    for b in BENCHES {
        let exp = Experiment::new(DeviceKind::Srt)
            .benchmark(benchmark(b))
            .seed(scale.seed)
            .warmup(scale.warmup)
            .measure(scale.measure);
        let id = Json::obj()
            .with("type", Json::Str("sampled".into()))
            .with("spec", Json::Str("SRT".into()))
            .with("benches", Json::Arr(vec![Json::Str(b.into())]))
            .with("scale", Json::Str("standard".into()))
            .with("plan_seed", Json::U64(seed));
        cells.push(Cell {
            name: format!("sampled/{b}"),
            key: format!("paper_cells/sampled/seed={seed}/{b}"),
            trace_id: rmt_stats::digest::digest(&id),
            kind: DeviceKind::Srt,
            bench: benchmark(b),
            exp,
            work: Work::Sampled(plan),
        });
    }
    let mut rng = Xoshiro256::seed_from(seed);
    shuffle(&mut cells, &mut rng);
    Ok(cells)
}

fn sampled_json(r: &SampledResult) -> Json {
    let windows = r
        .window_ipc
        .iter()
        .map(|t| Json::Arr(t.iter().map(|&x| Json::F64(x)).collect()))
        .collect();
    Json::obj()
        .with("kind", Json::Str(r.kind.name().into()))
        .with("cycles", Json::U64(r.cycles))
        .with("detailed_instructions", Json::U64(r.detailed_instructions))
        .with(
            "fastforward_instructions",
            Json::U64(r.fastforward_instructions),
        )
        .with("window_ipc", Json::Arr(windows))
}

/// Total commits of every hardware thread over the whole run, from a
/// result document's metrics.
fn commits_of(doc: &Json) -> u64 {
    doc.get("metrics").map_or(0, |m| {
        crate::common::sum_counters(m, crate::common::is_commit_counter)
    })
}

/// Runs one cell, returning its result document and simulated work.
fn run_cell(cell: &Cell, t: &Tracer, ctx: Ctx<'_>) -> Result<(Json, SimWork), String> {
    match &cell.work {
        Work::Standard(req) => {
            if t.enabled() {
                // Replays of the two steps `execute` performs before its
                // cycle loop, so the loop's share can be separated.
                let threads = t.replay(ctx, "workloads.generate", || {
                    let w = Workload::generate(cell.bench, SimScale::standard().seed);
                    vec![LogicalThread::from(&w)]
                });
                t.replay(ctx, "core.build", || {
                    cell.exp.build_device_with(threads).map(drop)
                })
                .map_err(|e| e.to_string())?;
            }
            let doc = t.span(ctx, "sim.execute", |_| req.execute(1, None))?;
            let work = SimWork {
                cycles: doc
                    .get("metrics")
                    .and_then(|m| m.get("device/cycles"))
                    .and_then(Json::as_u64)
                    .ok_or("result lacks metrics.device/cycles")?,
                commits: commits_of(&doc),
            };
            Ok((doc, work))
        }
        Work::Sampled(plan) => {
            let ladder = t
                .span(ctx, "sample.fastforward", |_| {
                    cell.exp.sample_checkpoints(plan)
                })
                .map_err(|e| e.to_string())?;
            let r = t
                .span(ctx, "sample.windows", |_| {
                    cell.exp.run_sampled_with(plan, &ladder)
                })
                .map_err(|e| e.to_string())?;
            let work = SimWork {
                cycles: r.cycles,
                commits: r.detailed_instructions,
            };
            Ok((sampled_json(&r), work))
        }
    }
}

/// Per-execution record.
struct Sample {
    cell: usize,
    wall: f64,
    cpu: f64,
    /// Host-speed factor from the reference chunk run just before.
    factor: f64,
}

/// Runs whole passes until `seconds` have elapsed (and at least
/// `min_passes`), checking every result.
fn passes(
    cells: &[Cell],
    expected: &[String],
    cfg: &RunCfg,
    seconds: f64,
    min_passes: usize,
    out: &mut Outcome,
    works: &mut [SimWork],
) -> Result<(Vec<Sample>, f64), String> {
    let t = &cfg.tracer;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut n = 0;
    while n < min_passes || start.elapsed().as_secs_f64() < seconds {
        t.span(Ctx::root("paper_cells", 0), "bench.pass", |pass| {
            for (i, cell) in cells.iter().enumerate() {
                let ctx = pass.with_trace(&cell.trace_id);
                let chunk = t.span(ctx, "bench.reference", |_| probe::reference_chunk());
                let (res, wall, cpu) = timed(|| {
                    t.span(ctx, "bench.cell", |c| {
                        let (doc, work) = run_cell(cell, t, c)?;
                        t.span(c, "stats.encode", |_| drop(doc.encode_pretty()));
                        Ok::<_, String>((doc, work))
                    })
                })?;
                let check = res.and_then(|(doc, work)| {
                    works[i] = work;
                    t.span(ctx, "bench.check", |_| {
                        let got = rmt_stats::digest::digest(&doc);
                        if got == expected[i] {
                            Ok(())
                        } else {
                            Err(format!(
                                "{}: result digest {got}, expected {}",
                                cell.name, expected[i]
                            ))
                        }
                    })
                });
                out.count(check);
                samples.push(Sample {
                    cell: i,
                    wall,
                    cpu,
                    factor: probe::REFERENCE_NOMINAL_S / chunk,
                });
            }
            Ok::<_, String>(())
        })?;
        n += 1;
    }
    Ok((samples, start.elapsed().as_secs_f64()))
}

/// The expected result digest of every cell, in `cells` order.
fn expected_digests(cells: &[Cell], expected: &mut Expected) -> Result<Vec<String>, String> {
    let quiet = Tracer::new(false);
    cells
        .iter()
        .map(|c| {
            expected.get_or_compute(&c.key, || {
                run_cell(c, &quiet, Ctx::root(&c.trace_id, 0)).map(|(doc, _)| doc)
            })
        })
        .collect()
}

/// Computes the seed's expected digests (the `--record` mode).
///
/// # Errors
///
/// A cell fails to simulate.
pub fn record(seed: u64, expected: &mut Expected) -> Result<(), String> {
    expected_digests(&build_cells(seed)?, expected).map(drop)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (a failing cell is counted, not an error).
pub fn run(cfg: &RunCfg, expected: &mut Expected) -> Result<Outcome, String> {
    let (cells, setup_s) = median_setup(SETUP_REPS, || build_cells(cfg.seed), drop)?;
    let want = expected_digests(&cells, expected)?;
    let mut out = Outcome::default();
    let mut works = vec![SimWork::default(); cells.len()];
    if !cfg.tracer.enabled() {
        let (samples, _) = passes(
            &cells,
            &want,
            cfg,
            cfg.seconds,
            MIN_PASSES,
            &mut out,
            &mut works,
        )?;
        end_to_end(&cells, &samples, setup_s, &mut out)?;
    } else {
        traced(&cells, &want, cfg, &mut out, &mut works)?;
    }
    Ok(out)
}

fn end_to_end(
    cells: &[Cell],
    samples: &[Sample],
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Every time here is CPU-bound, so each cell's wall and CPU seconds
    // are host-normalised by the reference chunk run just before it. Then
    // per-cell medians over passes: a burst of contention slows the cells
    // it overlaps in one pass, and the median drops them.
    let per_cell = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        (0..cells.len())
            .map(|i| {
                let v: Vec<f64> = samples.iter().filter(|s| s.cell == i).map(f).collect();
                probe::median(&v).unwrap_or(f64::NAN)
            })
            .sum()
    };
    let pass_wall = per_cell(&|s| s.wall * s.factor);
    let pass_cpu = per_cell(&|s| s.cpu * s.factor);
    let lat: Vec<f64> = samples.iter().map(|s| s.wall * s.factor * 1e3).collect();
    let (_, tail) = probe::tail(&lat, TAIL).ok_or("too few cells for a latency tail")?;
    let factors: Vec<f64> = samples.iter().map(|s| s.factor).collect();
    let factor = probe::median(&factors).unwrap_or(f64::NAN);
    eprintln!(
        "perfbench: median host factor {factor:.4}; unnormalised: cells_per_s {:.4}, cpu_s {:.3}",
        cells.len() as f64 / per_cell(&|s| s.wall),
        per_cell(&|s| s.cpu)
    );
    out.metrics = vec![
        ("setup_s", setup_s),
        ("cells_per_s", cells.len() as f64 / pass_wall),
        ("cpu_s", pass_cpu),
        ("peak_rss_mb", probe::peak_rss_mb()?),
        ("latency_p50_ms", probe::median(&lat).unwrap_or(f64::NAN)),
        ("latency_tail_ms", tail),
    ];
    Ok(())
}

fn traced(
    cells: &[Cell],
    want: &[String],
    cfg: &RunCfg,
    out: &mut Outcome,
    works: &mut [SimWork],
) -> Result<(), String> {
    let quiet = cfg.quiet();
    let (walls0, walls1) = alternate(cfg.seconds, |traced| {
        let c = if traced { cfg } else { &quiet };
        passes(cells, want, c, 0.0, 1, out, works).map(|(_, wall)| wall)
    })?;
    let n1 = walls1.len();
    let wall1: f64 = walls1.iter().sum();
    let spans = cfg.tracer.spans();
    let per = |x: f64| x / n1 as f64;
    let st = trace::self_times(&spans);
    let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
    let generate = get("workloads.generate");
    let build = get("core.build");
    let loop_s = trace::total(&spans, "sim.execute") - generate - build;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("pipeline.loop_s", per(loop_s));
    let std_cells = |k: Option<DeviceKind>| -> (u64, u64) {
        cells
            .iter()
            .zip(works.iter())
            .filter(|(c, _)| matches!(c.work, Work::Standard(_)) && k.is_none_or(|k| c.kind == k))
            .fold((0, 0), |(c, n), (_, w)| (c + w.cycles, n + w.commits))
    };
    let (cyc, _) = std_cells(None);
    m.insert("pipeline.cycles_per_s", cyc as f64 / per(loop_s));
    for (kind, name) in [
        (DeviceKind::Base, "pipeline.commits_per_s.base"),
        (DeviceKind::Srt, "pipeline.commits_per_s.srt"),
        (DeviceKind::Crt, "pipeline.commits_per_s.crt"),
        (DeviceKind::Lock8, "pipeline.commits_per_s.lock8"),
    ] {
        let (_, commits) = std_cells(Some(kind));
        let ids: Vec<&str> = cells
            .iter()
            .filter(|c| c.kind == kind && matches!(c.work, Work::Standard(_)))
            .map(|c| c.trace_id.as_str())
            .collect();
        let exec = trace::loop_secs(&spans, |id| ids.contains(&id));
        m.insert(name, commits as f64 / per(exec));
    }
    m.insert("workloads.generate_s", per(generate));
    m.insert("core.build_s", per(build));
    m.insert("sample.fastforward_s", per(get("sample.fastforward")));
    m.insert("sample.windows_s", per(get("sample.windows")));
    m.insert("stats.encode_s", per(get("stats.encode")));
    m.insert(
        "sim.sim_cycles",
        works.iter().map(|w| w.cycles).sum::<u64>() as f64,
    );
    m.insert(
        "sim.commits",
        works.iter().map(|w| w.commits).sum::<u64>() as f64,
    );
    let traced_wall = per(wall1);
    let rows = vec![
        Row::new(
            "pipeline.loop",
            per(loop_s),
            "sim.execute minus its replayed generate and build",
        ),
        Row::new(
            "workloads.generate",
            per(generate),
            "measured by replay, inside sim.execute",
        ),
        Row::new(
            "core.build",
            per(build),
            "measured by replay, inside sim.execute",
        ),
        Row::new("sample.windows", per(get("sample.windows")), ""),
        Row::new("sample.fastforward", per(get("sample.fastforward")), ""),
        Row::new("stats.encode", per(get("stats.encode")), ""),
        Row::new(
            "bench.check",
            per(get("bench.check")),
            "result digest comparison",
        ),
        Row::new(
            "bench.reference",
            per(get("bench.reference")),
            "host-speed reference chunks",
        ),
        Row::new(
            "trace.replay",
            per(generate + build),
            "the replays themselves: tracing overhead",
        ),
    ];
    let unattributed = traced_wall - rows.iter().map(|r| r.secs).sum::<f64>();
    m.insert("trace.unattributed_frac", unattributed / traced_wall);
    m.insert("trace.overhead_frac", overhead(&walls0, &walls1));
    out.waterfall = trace::waterfall(
        &format!(
            "paper_cells: {n1} traced pass(es) of {traced_wall:.3} s (mean); untraced passes {:.3} s (median)",
            probe::median(&walls0).unwrap_or(f64::NAN)
        ),
        traced_wall,
        &rows,
        unattributed,
    );
    out.metrics = m.into_iter().collect();
    Ok(())
}
