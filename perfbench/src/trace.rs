//! Benchmark-side tracing: spans recorded around the benchmark's calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span's layer is the part of its name before the first `.`
//! (`runner.point` belongs to `runner`). A layer's self time is the time
//! its spans cover minus the part of each span its child spans cover.

use dcl1_obs::json::{escape, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One timed interval, in seconds since the run's time base.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, seconds since the run's time base.
    pub start: f64,
    /// End, seconds since the run's time base.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub request: String,
}

/// The spans of one run, in recording order.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Recorded spans; a parent always precedes its children.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index (for use as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: &str,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: request.to_string(),
        });
        self.spans.len() - 1
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let covered = union_within(kids, s.start, s.end);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":\"{}\"}}",
                s.name,
                s.start,
                s.end,
                escape(&s.request)
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur_end) = (0.0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur_end), e.min(hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// One progress-stream event as the benchmark saw it arrive.
#[derive(Debug, Clone)]
pub struct TapEvent {
    /// Arrival, seconds since the run's time base.
    pub t: f64,
    /// Thread that wrote the event (meaningful in-process only).
    pub thread: ThreadId,
    /// `started`, `completed`, `quarantined`, …
    pub stage: String,
    /// `APP/DESIGN` label.
    pub point: String,
    /// Result provenance on completed events.
    pub source: Option<String>,
    /// Owning tenant on daemon job events; absent on runner events.
    pub tenant: Option<String>,
}

/// Parses one progress JSONL line into a [`TapEvent`] stamped `t`.
pub fn parse_event(line: &str, t: f64) -> Option<TapEvent> {
    let doc = Json::parse(line.trim()).ok()?;
    let field = |k: &str| doc.get(k).and_then(Json::as_str).map(String::from);
    Some(TapEvent {
        t,
        thread: std::thread::current().id(),
        stage: field("event")?,
        point: field("point")?,
        source: field("source"),
        tenant: field("tenant"),
    })
}

/// A progress sink target that stamps each event with its arrival time
/// and writing thread: the runner's own hook for seeing when each point
/// starts and completes, without touching the runner.
#[derive(Clone)]
pub struct Tap {
    base: Instant,
    events: Arc<Mutex<Vec<TapEvent>>>,
}

impl Tap {
    /// A tap whose timestamps count from `base`.
    pub fn new(base: Instant) -> Tap {
        Tap {
            base,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Every event received so far, in arrival order.
    pub fn events(&self) -> Vec<TapEvent> {
        self.events.lock().expect("tap lock").clone()
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = self.base.elapsed().as_secs_f64();
        if let Some(ev) = std::str::from_utf8(buf)
            .ok()
            .and_then(|l| parse_event(l, t))
        {
            self.events.lock().expect("tap lock").push(ev);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pairs each runner `started` event with the next `completed` or
/// `quarantined` event for the same point, returning
/// `(point, start, end, source)`. `same_thread` additionally requires
/// both events to come from one thread (in-process taps, where a worker
/// runs a point start to finish).
pub fn point_intervals(
    events: &[TapEvent],
    same_thread: bool,
) -> Vec<(String, f64, f64, Option<String>)> {
    let mut open: Vec<&TapEvent> = Vec::new();
    let mut out = Vec::new();
    for ev in events.iter().filter(|e| e.tenant.is_none()) {
        match ev.stage.as_str() {
            "started" => open.push(ev),
            "completed" | "quarantined" => {
                let pos = open
                    .iter()
                    .position(|s| s.point == ev.point && (!same_thread || s.thread == ev.thread));
                if let Some(pos) = pos {
                    let s = open.remove(pos);
                    out.push((ev.point.clone(), s.t, ev.t, ev.source.clone()));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.push("bench.sweep", 0.0, 10.0, None, "sweep");
        // Two overlapping children cover [1, 6]; the third pokes past the
        // end and covers [9, 10] of the root.
        log.push("runner.point", 1.0, 4.0, Some(root), "a");
        log.push("runner.point", 3.0, 6.0, Some(root), "b");
        log.push("runner.point", 9.0, 12.0, Some(root), "c");
        let st = log.self_times();
        assert!((st["bench"] - 4.0).abs() < 1e-12, "{st:?}");
        assert!((st["runner"] - 9.0).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn tap_pairs_started_and_completed_per_point() {
        let line =
            |ev: &str, p: &str| format!("{{\"seq\": 1, \"event\": \"{ev}\", \"point\": \"{p}\"}}");
        let mut evs = Vec::new();
        for (i, (ev, p)) in [
            ("started", "A/x"),
            ("started", "B/x"),
            ("completed", "B/x"),
            ("completed", "A/x"),
        ]
        .iter()
        .enumerate()
        {
            evs.push(parse_event(&line(ev, p), i as f64).expect("parses"));
        }
        let spans = point_intervals(&evs, true);
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].0.as_str(), spans[0].1, spans[0].2),
            ("B/x", 1.0, 2.0)
        );
        assert_eq!(
            (spans[1].0.as_str(), spans[1].1, spans[1].2),
            ("A/x", 0.0, 3.0)
        );
    }
}
