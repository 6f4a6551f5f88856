//! Snapshots and exporters: human-readable summary, JSONL, Chrome trace.

use crate::metrics;
use crate::span::{self, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A counter's name and total at snapshot time.
#[derive(Clone, Debug)]
pub struct CounterSnap {
    pub name: String,
    pub value: u64,
}

/// A gauge's name and value at snapshot time.
#[derive(Clone, Debug)]
pub struct GaugeSnap {
    pub name: String,
    pub value: u64,
}

/// One occupied log2 bucket: inclusive value range and sample count.
#[derive(Clone, Copy, Debug)]
pub struct BucketSnap {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// A histogram's occupied buckets at snapshot time.
#[derive(Clone, Debug)]
pub struct HistogramSnap {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// Smallest and largest recorded sample (`u64::MAX` and 0 when empty).
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<BucketSnap>,
}

impl HistogramSnap {
    /// Estimate of the `q`-quantile (`0 ≤ q ≤ 1`). The fractional rank
    /// `q·(count−1)` picks a bucket; within it the samples are taken to be
    /// spread evenly over the bucket's range, narrowed to the recorded
    /// `[min, max]`, and the estimate interpolates linearly to the rank.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0u64;
        for b in &self.buckets {
            if (before + b.count) as f64 > rank {
                let lo = b.lo.max(self.min);
                let hi = b.hi.min(self.max).max(lo);
                let width = (hi - lo) as f64 + 1.0;
                let offset = ((rank - before as f64) / b.count as f64 * width) as u64;
                return (lo + offset).min(hi);
            }
            before += b.count;
        }
        self.max
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything the recorder held at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<CounterSnap>,
    pub gauges: Vec<GaugeSnap>,
    pub histograms: Vec<HistogramSnap>,
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the bounded store was full.
    pub spans_dropped: u64,
}

/// Per-span-name aggregate: the stage-profile export hook consumed by the
/// HTML report's telemetry section (and anything else that wants a compact
/// "where did the time go" view without walking raw spans).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// Static span name, e.g. `"workload.simulate_clients"`.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub wall_ns_total: u64,
    /// Total simulated microseconds covered (0 when no span under this name
    /// carried a sim range).
    pub sim_us_total: u64,
}

pub(crate) fn take_snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    metrics::collect_all(&mut snap);
    let (spans, dropped) = span::take_spans();
    snap.spans = spans;
    snap.spans_dropped = dropped;
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

impl Snapshot {
    /// Total of the named counter (0 if it never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of the named gauge, if it registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, if it registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Number of recorded spans with this name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Aggregate spans by name into [`StageProfile`] rows, sorted by name
    /// (the rendering order of the HTML report's stage bars).
    pub fn stage_profile(&self) -> Vec<StageProfile> {
        let mut agg: BTreeMap<&'static str, StageProfile> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(s.name).or_insert(StageProfile {
                name: s.name,
                count: 0,
                wall_ns_total: 0,
                sim_us_total: 0,
            });
            e.count += 1;
            e.wall_ns_total += s.dur_ns;
            if let (Some(a), Some(b)) = (s.sim_start_us, s.sim_end_us) {
                e.sim_us_total += b.saturating_sub(a);
            }
        }
        agg.into_values().collect()
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Human-readable run summary: counters, gauges, histogram quantiles,
    /// and per-name span aggregates.
    pub fn render_summary(&self) -> String {
        let mut out = String::from("== telemetry ==\n");
        if self.is_empty() {
            out.push_str("(recorder off or nothing instrumented ran)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.iter().map(|c| c.name.len()).max().unwrap_or(0);
            for c in &self.counters {
                let _ = writeln!(out, "  {:width$}  {}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.iter().map(|g| g.name.len()).max().unwrap_or(0);
            for g in &self.gauges {
                let _ = writeln!(out, "  {:width$}  {}", g.name, g.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (log2 buckets; quantiles interpolated within a bucket):\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {}  n={} mean={:.1} p50~{} p95~{} p99~{}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (wall time, aggregated by name):\n");
            let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
            for s in &self.spans {
                let e = agg.entry(s.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += s.dur_ns;
            }
            for (name, (count, total_ns)) in agg {
                let total_ms = total_ns as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "  {name}  n={count} total={total_ms:.1}ms mean={:.3}ms",
                    total_ms / count as f64,
                );
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(out, "spans dropped (store full): {}", self.spans_dropped);
        }
        out
    }

    /// One JSON object per line: every counter, gauge, histogram, and span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(&c.name),
                c.value
            );
        }
        for g in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(&g.name),
                g.value
            );
        }
        for h in &self.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|b| format!("[{},{},{}]", b.lo, b.hi, b.count))
                .collect();
            // Quantiles ride along so JSONL consumers get the same p50/p95/p99
            // the text summary prints, without re-deriving bucket math.
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
                json_escape(&h.name),
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                buckets.join(",")
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"name\":\"{}\",\"detail\":{},\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"sim_start_us\":{},\"sim_end_us\":{}}}",
                json_escape(s.name),
                match &s.detail {
                    Some(d) => format!("\"{}\"", json_escape(d)),
                    None => "null".to_string(),
                },
                s.tid,
                s.start_ns,
                s.dur_ns,
                opt_num(s.sim_start_us),
                opt_num(s.sim_end_us),
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (complete `"X"` events, microsecond
    /// timestamps); load in `about:tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let cat = s.name.split('.').next().unwrap_or("app");
            let mut args = String::new();
            if let Some(d) = &s.detail {
                let _ = write!(args, "\"detail\":\"{}\"", json_escape(d));
            }
            if let (Some(a), Some(b)) = (s.sim_start_us, s.sim_end_us) {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"sim_start_us\":{a},\"sim_end_us\":{b}");
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                json_escape(s.name),
                json_escape(cat),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid,
            ));
        }
        format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
    }
}

fn opt_num(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
///
/// Public because it is the one JSON-string escaper in the workspace: the
/// JSONL/Chrome-trace exporters here and the report's hand-rolled
/// `manifest.json` all route hostile names (a site called `a"b\c`, a stage
/// with an embedded newline) through this function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: &[(u64, u64, u64)]) -> HistogramSnap {
        HistogramSnap {
            name: "h".into(),
            count: counts.iter().map(|c| c.2).sum(),
            sum: 0,
            min: counts.first().map_or(u64::MAX, |c| c.0),
            max: counts.last().map_or(0, |c| c.1),
            buckets: counts
                .iter()
                .map(|&(lo, hi, count)| BucketSnap { lo, hi, count })
                .collect(),
        }
    }

    #[test]
    fn quantile_walks_buckets() {
        let h = hist(&[(0, 0, 10), (1, 1, 10), (2, 3, 80)]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.05), 0);
        assert_eq!(h.quantile(0.15), 1);
        // Rank 49.5 is sample 29.5 of the 80 spread over [2, 3].
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), 3);
        assert_eq!(hist(&[]).quantile(0.5), 0);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_histogram_line_carries_quantiles() {
        let snap = Snapshot {
            histograms: vec![HistogramSnap {
                sum: 270,
                ..hist(&[(0, 0, 10), (1, 1, 10), (2, 3, 80)])
            }],
            ..Snapshot::default()
        };
        let line = snap.to_jsonl();
        // Pinned: consumers parse this shape; quantiles match `quantile()`.
        assert_eq!(
            line,
            "{\"kind\":\"histogram\",\"name\":\"h\",\"count\":100,\"sum\":270,\
             \"p50\":2,\"p95\":3,\"p99\":3,\"buckets\":[[0,0,10],[1,1,10],[2,3,80]]}\n"
        );
    }

    #[test]
    fn exporters_escape_hostile_names() {
        let snap = Snapshot {
            counters: vec![CounterSnap {
                name: "evil\"name\\with\nnewline".into(),
                value: 1,
            }],
            spans: vec![SpanRecord {
                name: "stage",
                detail: Some("detail\twith\u{2}control".into()),
                tid: 0,
                start_ns: 0,
                dur_ns: 1,
                sim_start_us: None,
                sim_end_us: None,
            }],
            ..Snapshot::default()
        };
        let jsonl = snap.to_jsonl();
        assert!(jsonl.contains("evil\\\"name\\\\with\\nnewline"));
        assert!(jsonl.contains("detail\\twith\\u0002control"));
        // No raw quote/backslash/control leaks into the JSON strings.
        let trace = snap.to_chrome_trace();
        assert!(trace.contains("detail\\twith\\u0002control"));
        assert!(!trace.contains('\u{2}'));
    }

    #[test]
    fn stage_profile_aggregates_by_name_with_sim_ranges() {
        let snap = Snapshot {
            spans: vec![
                SpanRecord {
                    name: "b.stage",
                    detail: None,
                    tid: 0,
                    start_ns: 0,
                    dur_ns: 100,
                    sim_start_us: Some(10),
                    sim_end_us: Some(30),
                },
                SpanRecord {
                    name: "b.stage",
                    detail: None,
                    tid: 1,
                    start_ns: 50,
                    dur_ns: 200,
                    sim_start_us: None,
                    sim_end_us: None,
                },
                SpanRecord {
                    name: "a.stage",
                    detail: None,
                    tid: 0,
                    start_ns: 0,
                    dur_ns: 7,
                    sim_start_us: None,
                    sim_end_us: None,
                },
            ],
            ..Snapshot::default()
        };
        let profile = snap.stage_profile();
        assert_eq!(profile.len(), 2);
        // Sorted by name.
        assert_eq!(profile[0].name, "a.stage");
        assert_eq!(profile[1].name, "b.stage");
        assert_eq!(profile[1].count, 2);
        assert_eq!(profile[1].wall_ns_total, 300);
        assert_eq!(profile[1].sim_us_total, 20);
        assert!(Snapshot::default().stage_profile().is_empty());
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert!(s.render_summary().contains("recorder off"));
        assert_eq!(s.to_jsonl(), "");
        assert_eq!(s.to_chrome_trace(), "{\"traceEvents\":[]}\n");
    }
}
