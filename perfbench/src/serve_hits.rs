//! `serve_hits`: cache hits on one in-process `rmt-serve` server.
//!
//! Set-up starts the server with its default configuration (on a fresh
//! cache directory) and fills its cache with the seed's 60 slack_sq unit
//! requests through its own `POST /v1/run` path. The measured part is a
//! closed loop: two client threads, each on one keep-alive `Client`,
//! replay a seeded shuffle of those requests, at least 1000 in a run,
//! every one a memory-tier hit. No simulation runs, only HTTP, cache
//! reads and the response, so transport and cache-read changes show here
//! and kernel changes do not.

use crate::common::{
    alternate, median_setup, overhead, seeded_sweep, shuffle, sum_counters, units, wait_job, Fleet,
    Outcome, RunCfg, Unit,
};
use crate::expect::Expected;
use crate::probe;
use crate::trace::{self, Ctx, Row, Tracer};
use rmt_serve::{Client, ServerConfig};
use rmt_stats::json::parse;
use rmt_stats::{Json, Xoshiro256};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Closed-loop client threads (and connections).
const CLIENTS: usize = 2;
/// Fewest requests a run makes, so the latency tail is a true p99.
const MIN_REQUESTS: u64 = 1000;
/// Set-up repetitions whose median `setup_s` reports.
const SETUP_REPS: usize = 3;
/// The latency tail is reported at this percentile.
pub const TAIL: f64 = 99.0;

/// Starts the server and fills its cache with every unit.
fn set_up(cfg: &RunCfg) -> Result<(Vec<Unit>, Fleet), String> {
    let units = units(&seeded_sweep(cfg.seed)?);
    let fleet = Fleet::start(1, &ServerConfig::default(), &cfg.scratch)?;
    let mut client = Client::new(&fleet.addrs()[0]);
    let mut jobs = Vec::new();
    for u in &units {
        let resp = client
            .post("/v1/run", u.payload.as_bytes())
            .map_err(|e| format!("fill POST: {e}"))?;
        let doc = parse(&resp.text()).map_err(|e| format!("fill POST: {e}"))?;
        match (resp.status, doc.get("job").and_then(Json::as_str)) {
            (202, Some(job)) => jobs.push(job.to_string()),
            (200, _) => {}
            (s, _) => return Err(format!("fill POST answered {s}: {}", resp.text())),
        }
    }
    for job in &jobs {
        wait_job(&mut client, job)?;
    }
    Ok((units, fleet))
}

/// One answered request.
struct Answer {
    latency_ms: f64,
    bytes: usize,
}

/// Checks one response against the unit's expected result digest.
fn check(body: &Json, unit: &Unit, want: &str) -> Result<(), String> {
    if body.get("cache_hit").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: not a cache hit", unit.digest));
    }
    if body.get("digest").and_then(Json::as_str) != Some(unit.digest.as_str()) {
        return Err(format!("{}: response names another digest", unit.digest));
    }
    let got = body
        .get("result")
        .map(rmt_stats::digest::digest)
        .ok_or_else(|| format!("{}: response has no result", unit.digest))?;
    if got != want {
        return Err(format!(
            "{}: result digest {got}, expected {want}",
            unit.digest
        ));
    }
    Ok(())
}

/// The requests a closed loop replays, and what each must return.
struct Replay<'a> {
    addr: &'a str,
    units: &'a [Unit],
    want: &'a [String],
    /// Seeded order of unit indices, cycled through.
    order: &'a [usize],
}

/// One client thread's answers and per-request checks.
type ClientLog = (Vec<Answer>, Vec<Result<(), String>>);

impl Replay<'_> {
    /// Posts unit `i` on `client` and checks the response. The answer is
    /// `None` when the request failed before a 200 response.
    fn request(
        &self,
        client: &mut Client,
        i: usize,
        tracer: &Tracer,
        tid: u32,
    ) -> (Option<Answer>, Result<(), String>) {
        let u = &self.units[i];
        tracer.span(Ctx::root(&u.digest, tid), "bench.request", |c| {
            let t0 = Instant::now();
            let resp = tracer.span(c, "serve.roundtrip", |_| {
                client.post("/v1/run", u.payload.as_bytes())
            });
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            let resp = match resp {
                Ok(r) if r.status == 200 => r,
                Ok(r) => return (None, Err(format!("{}: status {}", u.digest, r.status))),
                Err(e) => return (None, Err(format!("{}: {e}", u.digest))),
            };
            let ok = match tracer.span(c, "stats.parse", |_| parse(&resp.text())) {
                Ok(doc) => {
                    if tracer.enabled() {
                        // The server's own per-hit encode, replayed to
                        // measure it.
                        tracer.replay(c, "stats.encode", || drop(doc.encode_pretty()));
                    }
                    tracer.span(c, "bench.check", |_| check(&doc, u, &self.want[i]))
                }
                Err(e) => Err(format!("{}: unparseable response: {e}", u.digest)),
            };
            let answer = Answer {
                latency_ms,
                bytes: resp.body.len(),
            };
            (Some(answer), ok)
        })
    }

    /// Closed loop on `CLIENTS` threads until `seconds` have elapsed and
    /// at least `min` requests were issued. Returns the answers and the
    /// loop's wall seconds.
    fn closed_loop(
        &self,
        tracer: &Tracer,
        seconds: f64,
        min: u64,
        out: &mut Outcome,
    ) -> (Vec<Answer>, f64) {
        let issued = AtomicU64::new(0);
        let start = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS as u32)
                .map(|tid| {
                    let issued = &issued;
                    s.spawn(move || {
                        let mut client = Client::new(self.addr);
                        let mut log: ClientLog = (Vec::new(), Vec::new());
                        loop {
                            let k = issued.fetch_add(1, Ordering::Relaxed);
                            if k >= min && start.elapsed().as_secs_f64() >= seconds {
                                return log;
                            }
                            let i = self.order[k as usize % self.order.len()];
                            let (answer, ok) = self.request(&mut client, i, tracer, tid);
                            log.0.extend(answer);
                            log.1.push(ok);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut answers = Vec::new();
        for (a, checks) in logs {
            answers.extend(a);
            for c in checks {
                out.count(c);
            }
        }
        (answers, wall)
    }
}

/// Each unit's expected result digest. The reference is direct
/// in-process execution, not the server under test.
fn expected_digests(units: &[Unit], expected: &mut Expected) -> Result<Vec<String>, String> {
    units
        .iter()
        .map(|u| {
            expected.get_or_compute(&format!("unit/{}", u.digest), || u.request.execute(1, None))
        })
        .collect()
}

/// Computes the seed's expected digests (the `--record` mode).
///
/// # Errors
///
/// The sweep file is invalid or a unit fails to simulate.
pub fn record(seed: u64, expected: &mut Expected) -> Result<(), String> {
    expected_digests(&units(&seeded_sweep(seed)?), expected).map(drop)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (a failing request is counted, not an error).
pub fn run(cfg: &RunCfg, expected: &mut Expected) -> Result<Outcome, String> {
    let ((units, fleet), setup_s) = median_setup(SETUP_REPS, || set_up(cfg), |(_, f)| f.stop())?;
    let outcome = measure(cfg, expected, &units, &fleet, setup_s);
    fleet.stop();
    outcome
}

fn measure(
    cfg: &RunCfg,
    expected: &mut Expected,
    units: &[Unit],
    fleet: &Fleet,
    setup_s: f64,
) -> Result<Outcome, String> {
    let want = expected_digests(units, expected)?;
    let mut order: Vec<usize> = (0..units.len()).collect();
    shuffle(&mut order, &mut Xoshiro256::seed_from(cfg.seed));
    let addr = fleet.addrs()[0].clone();
    let replay = Replay {
        addr: &addr,
        units,
        want: &want,
        order: &order,
    };
    let mut out = Outcome::default();
    if cfg.tracer.enabled() {
        traced(cfg, &replay, fleet, &mut out)?;
        return Ok(out);
    }
    let cpu0 = probe::cpu_seconds()?;
    let (answers, wall) = replay.closed_loop(&cfg.tracer, cfg.seconds, MIN_REQUESTS, &mut out);
    let cpu = probe::cpu_seconds()? - cpu0;
    let lat: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let (_, tail) = probe::tail(&lat, TAIL).ok_or("too few requests for a latency tail")?;
    let n = answers.len() as f64;
    out.metrics = vec![
        ("setup_s", setup_s),
        ("cells_per_s", n / wall),
        // CPU seconds per pass over the 60 requests.
        ("cpu_s", cpu * units.len() as f64 / n),
        ("peak_rss_mb", probe::peak_rss_mb()?),
        ("latency_p50_ms", probe::median(&lat).unwrap_or(f64::NAN)),
        ("latency_tail_ms", tail),
    ];
    Ok(out)
}

fn traced(
    cfg: &RunCfg,
    replay: &Replay<'_>,
    fleet: &Fleet,
    out: &mut Outcome,
) -> Result<(), String> {
    let per_pass = replay.units.len() as u64;
    let quiet = Tracer::new(false);
    let mut a1 = Vec::new();
    let (mut hits, mut misses) = (0.0, 0.0);
    let cache = |d: &Json, k: &str| sum_counters(d, |n| n == k) as f64;
    // A pass is the 60 requests, spread over the client threads.
    let (walls0, walls1) = alternate(cfg.seconds, |traced| {
        let tracer = if traced { &cfg.tracer } else { &quiet };
        let before = fleet.metrics()?.remove(0);
        let (mut a, wall) = replay.closed_loop(tracer, 0.0, per_pass, out);
        if traced {
            let after = fleet.metrics()?.remove(0);
            hits += cache(&after, "serve/cache/hits") - cache(&before, "serve/cache/hits");
            misses += cache(&after, "serve/cache/misses") - cache(&before, "serve/cache/misses");
            a1.append(&mut a);
        }
        Ok(wall)
    })?;
    let after = fleet.metrics()?.remove(0);
    let spans = cfg.tracer.spans();
    let st = trace::self_times(&spans);
    let passes = a1.len() as f64 / per_pass as f64;
    let get = |k: &str| st.get(k).copied().unwrap_or(0.0) / passes;
    let lat: Vec<f64> = a1.iter().map(|a| a.latency_ms).collect();
    let client_p50 = probe::median(&lat).unwrap_or(f64::NAN);
    let server_p50 = after
        .get("serve/latency_ms/run")
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64;
    let bytes: f64 = a1.iter().map(|a| a.bytes as f64).sum();
    // Client-thread time per pass: both threads for the whole phase.
    let wall = walls1.iter().sum::<f64>() * CLIENTS as f64 / passes;
    let rows = vec![
        Row::new(
            "serve.roundtrip",
            get("serve.roundtrip"),
            "POST to full response, client side",
        ),
        Row::new(
            "stats.parse",
            get("stats.parse"),
            "client parse of the envelope",
        ),
        Row::new(
            "stats.encode",
            get("stats.encode"),
            "the server's per-hit encode, replayed: tracing overhead",
        ),
        Row::new(
            "bench.check",
            get("bench.check"),
            "result digest comparison",
        ),
    ];
    let unattributed = wall - rows.iter().map(|r| r.secs).sum::<f64>();
    out.metrics = vec![
        ("serve.server_p50_ms", server_p50),
        ("serve.transport_p50_ms", client_p50 - server_p50),
        ("serve.hit_frac", hits / (hits + misses)),
        ("serve.response_kb", bytes / a1.len() as f64 / 1024.0),
        ("stats.parse_s", get("stats.parse")),
        ("stats.encode_s", get("stats.encode")),
        ("trace.unattributed_frac", unattributed / wall),
        ("trace.overhead_frac", overhead(&walls0, &walls1)),
    ];
    out.waterfall = trace::waterfall(
        &format!(
            "serve_hits: {} traced requests on {CLIENTS} clients, {wall:.4} s of client time per {per_pass} requests",
            a1.len()
        ),
        wall,
        &rows,
        unattributed,
    );
    Ok(())
}
