//! The repository benchmark: end-to-end metrics of three workloads over
//! the RMT simulator stack, and a traced mode that attributes them to
//! layers. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload paper_cells|sweep_cold|serve_hits --seed N
//!           --seconds S --trace 0|1 [--record]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `perfbench --record --seed N` measures nothing: it computes every
//! workload's expected digests for seed `N` that `expected.json` lacks
//! and merges them into it.

#![forbid(unsafe_code)]

mod common;
mod expect;
mod paper_cells;
mod probe;
mod serve_hits;
mod sweep_cold;
mod trace;

use common::{bench_dir, Outcome, RunCfg};
use rmt_stats::Json;
use std::process::ExitCode;

/// End-to-end metrics, reported by untraced runs, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs, with their units. A layer
/// a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("pipeline.loop_s", "s"),
    ("pipeline.cycles_per_s", "1/s"),
    ("pipeline.commits_per_s.base", "1/s"),
    ("pipeline.commits_per_s.srt", "1/s"),
    ("pipeline.commits_per_s.crt", "1/s"),
    ("pipeline.commits_per_s.lock8", "1/s"),
    ("workloads.generate_s", "s"),
    ("core.build_s", "s"),
    ("sample.fastforward_s", "s"),
    ("sample.windows_s", "s"),
    ("stats.encode_s", "s"),
    ("stats.parse_s", "s"),
    ("sim.sim_cycles", "count"),
    ("sim.commits", "count"),
    ("sim.unit_compute_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.expand_s", "s"),
    ("cluster.dispatched", "count"),
    ("cluster.retried", "count"),
    ("cluster.stolen", "count"),
    ("cluster.duplicate_results", "count"),
    ("cluster.useful_frac", "frac"),
    ("serve.polls_per_cell", "count"),
    ("serve.idle_frac", "frac"),
    ("serve.cache_misses", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.hit_frac", "frac"),
    ("serve.response_kb", "KiB"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

const USAGE: &str =
    "usage: perfbench --workload paper_cells|sweep_cold|serve_hits --seed N --seconds S --trace 0|1 [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// The `--record` mode: computes every workload's missing expected
/// digests for `seed` and merges them into `expected.json`.
fn record(seed: u64) -> Result<(), String> {
    let mut expected = expect::Expected::load();
    paper_cells::record(seed, &mut expected)?;
    sweep_cold::record(seed, &mut expected)?;
    serve_hits::record(seed, &mut expected)?;
    expected.record()?;
    eprintln!(
        "perfbench: recorded {} digest(s) for seed {seed}",
        expected.computed_count()
    );
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = bench_dir().join("out");
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        scratch: out_dir.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("mkdir {}: {e}", cfg.scratch.display()))?;
    let mut expected = expect::Expected::load();
    let outcome = match args.workload.as_str() {
        "paper_cells" => paper_cells::run(&cfg, &mut expected),
        "sweep_cold" => sweep_cold::run(&cfg, &mut expected),
        "serve_hits" => serve_hits::run(&cfg, &mut expected),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let outcome = outcome?;
    if expected.computed_count() > 0 {
        eprintln!(
            "perfbench: seed {} has {} expected digest(s) not stored; computed in-process",
            args.seed,
            expected.computed_count()
        );
    }
    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let chrome = trace::chrome_trace(&cfg.tracer.spans(), &args.workload);
        let path = out_dir.join(format!("trace-{stem}.json"));
        std::fs::write(&path, chrome.encode())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let path = out_dir.join(format!("waterfall-{stem}.txt"));
        std::fs::write(&path, &outcome.waterfall)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprint!("{}", outcome.waterfall);
    }
    Ok(outcome)
}

/// The result line: every metric of the run's kind, in declaration
/// order; per-layer metrics a workload does not exercise read 0.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) if trace => {
                eprintln!("perfbench: {name} is {v} (no work to divide by); reporting 0");
                0.0
            }
            Some(&(_, v)) => return Err(format!("{name} measured as {v}")),
            None if trace => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        metrics.set(
            name,
            Json::obj()
                .with("value", Json::F64(value))
                .with("unit", Json::Str(unit.into())),
        );
    }
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("internal: {name} is not a declared metric"));
    }
    Ok(Json::obj()
        .with("correct", Json::Bool(out.failed == 0 && out.attempted > 0))
        .with("attempted", Json::U64(out.attempted))
        .with("failed", Json::U64(out.failed))
        .with("metrics", metrics)
        .encode())
}

fn main() -> ExitCode {
    let result = parse_args()
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| {
            if args.record {
                return record(args.seed).map(|()| None);
            }
            run(&args).and_then(|out| result_line(&out, args.trace).map(Some))
        });
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = rmt_stats::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, table, "{key} differs from BENCHMARK.json");
        }
    }
}
