//! In-memory spans around the benchmark's calls into each layer, their
//! self-time attribution, and the Chrome trace-event file Perfetto opens.
//!
//! A span records name, start, end, parent and the trace id of the cell
//! it belongs to (the cell's content digest). Spans are kept in memory
//! and written out once the run ends; a disabled tracer records nothing.
//!
//! Some layers run inside a call the benchmark cannot split from outside
//! (workload generation and device construction inside
//! `ServiceRequest::execute`). The traced run calls those layers again on
//! their own, as *replays*: a replay span measures the layer, is
//! subtracted from the enclosing call's self time in the attribution, and
//! is itself counted as tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `pipeline.execute`.
    pub name: &'static str,
    /// The cell this span works for (its content digest), or the
    /// workload name for spans that serve no single cell.
    pub trace_id: String,
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Client thread that recorded the span.
    pub tid: u32,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// A replayed call (see the module docs).
    pub replay: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Span recorder shared by the client threads of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<(u64, Vec<Span>)>,
}

/// Where a new span sits: its parent, trace id and recording thread.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Parent span id (0 = none).
    pub parent: u64,
    /// Trace id children inherit.
    pub trace_id: &'a str,
    /// Recording thread.
    pub tid: u32,
}

impl<'a> Ctx<'a> {
    /// A root context for `trace_id` on thread `tid`.
    pub fn root(trace_id: &'a str, tid: u32) -> Ctx<'a> {
        Ctx {
            parent: 0,
            trace_id,
            tid,
        }
    }

    /// The same parent and thread, for another trace id (a cell's spans
    /// inside a pass that serves many cells).
    pub fn with_trace<'b>(self, trace_id: &'b str) -> Ctx<'b> {
        Ctx {
            parent: self.parent,
            trace_id,
            tid: self.tid,
        }
    }
}

impl Tracer {
    /// A tracer; when `enabled` is false every call is a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the context its
    /// own child spans should use.
    pub fn span<T>(&self, ctx: Ctx<'_>, name: &'static str, f: impl FnOnce(Ctx<'_>) -> T) -> T {
        self.record(ctx, name, false, f)
    }

    /// Runs `f` as a replay span (see the module docs).
    pub fn replay<T>(&self, ctx: Ctx<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(ctx, name, true, |_| f())
    }

    fn record<T>(
        &self,
        ctx: Ctx<'_>,
        name: &'static str,
        replay: bool,
        f: impl FnOnce(Ctx<'_>) -> T,
    ) -> T {
        if !self.enabled {
            return f(ctx);
        }
        let id = {
            let mut st = self.state.lock().expect("tracer mutex poisoned");
            st.0 += 1;
            st.0
        };
        let start = self.epoch.elapsed();
        let out = f(Ctx {
            parent: id,
            trace_id: ctx.trace_id,
            tid: ctx.tid,
        });
        let end = self.epoch.elapsed();
        let span = Span {
            name,
            trace_id: ctx.trace_id.to_string(),
            id,
            parent: (ctx.parent != 0).then_some(ctx.parent),
            tid: ctx.tid,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            replay,
        };
        self.state
            .lock()
            .expect("tracer mutex poisoned")
            .1
            .push(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.state.lock().expect("tracer mutex poisoned").1.clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        v
    }
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover (children of one span run on its thread, one
/// after another, so their durations add). Replay spans are subtracted
/// from their parent like any child but reported under their own name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.secs() - child_time.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own.max(0.0);
    }
    out
}

/// Total duration of the spans named `name`, in seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Cycle-loop seconds of the cells whose trace id passes `pick`: their
/// `sim.execute` time minus the replayed generation and construction
/// that `execute` also performs.
pub fn loop_secs(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && pick(&s.trace_id))
            .map(Span::secs)
            .sum()
    };
    sum("sim.execute") - sum("workloads.generate") - sum("core.build")
}

/// The spans as a Chrome trace-event document (complete `X` events, one
/// track per client thread), which Perfetto and `chrome://tracing` open.
pub fn chrome_trace(spans: &[Span], process: &str) -> rmt_stats::Json {
    use rmt_stats::Json;
    let mut events = vec![Json::obj()
        .with("name", Json::Str("process_name".into()))
        .with("ph", Json::Str("M".into()))
        .with("pid", Json::U64(1))
        .with("args", Json::obj().with("name", Json::Str(process.into())))];
    for s in spans {
        let mut args = Json::obj()
            .with("trace_id", Json::Str(s.trace_id.clone()))
            .with("span_id", Json::U64(s.id))
            .with("replay", Json::Bool(s.replay));
        if let Some(p) = s.parent {
            args.set("parent", Json::U64(p));
        }
        events.push(
            Json::obj()
                .with("name", Json::Str(s.name.into()))
                .with("cat", Json::Str(layer_of(s.name).into()))
                .with("ph", Json::Str("X".into()))
                .with("ts", Json::F64(s.start_us))
                .with("dur", Json::F64(s.end_us - s.start_us))
                .with("pid", Json::U64(1))
                .with("tid", Json::U64(u64::from(s.tid)))
                .with("args", args),
        );
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::Str("ms".into()))
}

/// The layer a span name belongs to: the part before the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One line of a self-time waterfall.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer or span name.
    pub name: String,
    /// Seconds per pass.
    pub secs: f64,
    /// What the row measures, when the name does not say.
    pub note: &'static str,
}

impl Row {
    /// A row of `secs` seconds per pass.
    pub fn new(name: &str, secs: f64, note: &'static str) -> Row {
        Row {
            name: name.into(),
            secs,
            note,
        }
    }
}

/// Renders a waterfall: `rows` and then the `unattributed` remainder, as
/// seconds per pass and shares of `wall` (the traced phase's
/// client-thread time per pass), a bar each.
pub fn waterfall(title: &str, wall: f64, rows: &[Row], unattributed: f64) -> String {
    let mut rows = rows.to_vec();
    rows.push(Row::new("unattributed", unattributed, "between spans"));
    let mut out = format!("{title}\n");
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(8).max(8);
    let mut start = 0.0;
    for r in &rows {
        let share = if wall > 0.0 { r.secs / wall } else { 0.0 };
        let from = ((start / wall.max(1e-12)) * 40.0).round() as usize;
        let len = ((share * 40.0).round() as usize).max(usize::from(r.secs > 0.0));
        start += r.secs;
        let bar = format!("{}{}", " ".repeat(from.min(40)), "#".repeat(len));
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10.4} s  {:>6.2}%  |{:<41}| {}",
            r.name,
            r.secs,
            share * 100.0,
            bar,
            r.note
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, t: (f64, f64)) -> Span {
        Span {
            name,
            trace_id: "cell".into(),
            id,
            parent,
            tid: 0,
            start_us: t.0,
            end_us: t.1,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cell", 1, None, (0.0, 10e6)),
            span("sim.execute", 2, Some(1), (1e6, 7e6)),
            span("inner", 3, Some(2), (2e6, 3e6)),
            span("stats.encode", 4, Some(1), (7e6, 8e6)),
        ];
        let st = self_times(&spans);
        assert!((st["cell"] - 3.0).abs() < 1e-9);
        assert!((st["sim.execute"] - 5.0).abs() < 1e-9);
        assert!((st["inner"] - 1.0).abs() < 1e-9);
        assert!((st["stats.encode"] - 1.0).abs() < 1e-9);
        // Self times partition the root's duration.
        assert!((st.values().sum::<f64>() - 10.0).abs() < 1e-9);
        assert!((total(&spans, "sim.execute") - 6.0).abs() < 1e-9);
    }

    #[test]
    fn recorded_spans_nest_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span(Ctx::root("d1", 0), "cell", |c| {
            t.replay(c, "core.build", || 1) + t.span(c, "sim.execute", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "cell").unwrap();
        assert_eq!(root.parent, None);
        for s in spans.iter().filter(|s| s.name != "cell") {
            assert_eq!(s.parent, Some(root.id));
            assert_eq!(s.trace_id, "d1");
            assert!(s.start_us >= root.start_us && s.end_us <= root.end_us);
        }
        assert!(spans.iter().any(|s| s.name == "core.build" && s.replay));

        let off = Tracer::new(false);
        assert_eq!(off.span(Ctx::root("d1", 0), "cell", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("cell", 1, None, (0.0, 10.0)),
            span("sim.execute", 2, Some(1), (1.0, 7.0)),
        ];
        let doc = chrome_trace(&spans, "paper_cells");
        let text = doc.encode();
        let back = rmt_stats::json::parse(&text).unwrap();
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let exec = complete[1];
        assert_eq!(exec.get("cat").unwrap().as_str(), Some("sim"));
        assert_eq!(exec.get("dur").unwrap().as_f64(), Some(6.0));
        assert_eq!(
            exec.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn waterfall_lists_every_row_with_its_share() {
        let rows = vec![Row::new("pipeline.loop", 3.0, "the cycle loop")];
        let text = waterfall("paper_cells", 4.0, &rows, 1.0);
        assert!(text.contains("75.00%"), "{text}");
        assert!(text.contains("25.00%"), "{text}");
        assert!(text.contains("the cycle loop") && text.contains("unattributed"));
    }
}
