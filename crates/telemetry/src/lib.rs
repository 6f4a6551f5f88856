//! `telemetry` — structured metrics, span tracing, and stage profiling.
//!
//! A zero-dependency measurement substrate for the simulator and the
//! analysis pipeline: static [`Counter`]s / [`Gauge`]s / log2-bucket
//! [`Histogram`]s, plus lightweight [`SpanGuard`] tracing keyed by both
//! wall-clock monotonic time and (optionally) simulation time. Snapshots
//! export as a human-readable summary, a JSONL metric/event dump, or a
//! Chrome-trace-format (`trace_event`) JSON viewable in `about:tracing`.
//!
//! ## Determinism contract
//!
//! The recorder is *observation only*:
//!
//! * it draws no randomness and never feeds anything back into the code it
//!   instruments, so simulation results are bit-identical whether telemetry
//!   is enabled, disabled, or absent;
//! * counters and histograms are plain atomics (sharded to keep
//!   multi-threaded hot paths cheap), so their totals are thread-count
//!   invariant even though increment interleaving is not;
//! * only wall-clock fields (span durations) are nondeterministic, exactly
//!   like the `wall` field of a run report.
//!
//! ## Gating
//!
//! Two gates keep the disabled cost at (near) zero:
//!
//! * **compile time** — without the `enabled` cargo feature, [`enabled()`]
//!   is `const false` and every recording body is optimized out;
//! * **run time** — with the feature compiled in, recording still only
//!   happens after [`enable`]`(true)`; the off path is one relaxed atomic
//!   load and a branch.
//!
//! ## Usage
//!
//! ```
//! telemetry::enable(true);
//! {
//!     let mut span = telemetry::span!("stage.example");
//!     span.set_sim_range(0, 3_600_000_000);
//!     telemetry::counter!("events.handled", 3);
//!     telemetry::histogram!("latency_us", 1234);
//! }
//! let snap = telemetry::snapshot();
//! assert!(snap.counter("events.handled") >= 3);
//! telemetry::enable(false);
//! ```

mod export;
mod metrics;
mod span;

pub use export::{
    json_escape, BucketSnap, CounterSnap, GaugeSnap, HistogramSnap, Snapshot, StageProfile,
};
pub use metrics::{Counter, CounterVec, Gauge, Histogram, Sampler};
pub use span::{SpanGuard, SpanRecord};

#[cfg(feature = "enabled")]
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Is recording active (compiled in *and* switched on)?
#[cfg(feature = "enabled")]
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Is recording active? Always `false` in a build without the `enabled`
/// feature, so instrumented call sites fold to no-ops.
#[cfg(not(feature = "enabled"))]
#[inline]
pub const fn enabled() -> bool {
    false
}

/// Switch the recorder on or off at runtime. A no-op (recording stays off)
/// when the `enabled` feature is not compiled in.
pub fn enable(on: bool) {
    #[cfg(feature = "enabled")]
    ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// Take a consistent snapshot of every registered metric and all recorded
/// spans. Cheap enough to call once per run; not meant for hot paths.
pub fn snapshot() -> Snapshot {
    export::take_snapshot()
}

/// Zero all registered metrics and discard all recorded spans. Intended for
/// tests and for separating phases of a long-lived process.
pub fn reset() {
    metrics::reset_all();
    span::reset_spans();
}

/// Increment a named [`Counter`] declared statically at the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        static __TELEMETRY_COUNTER: $crate::Counter = $crate::Counter::new($name);
        __TELEMETRY_COUNTER.add($n);
    }};
}

/// Raise a named peak-tracking [`Gauge`] declared statically at the call
/// site to at least `$v`.
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $v:expr) => {{
        static __TELEMETRY_GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        __TELEMETRY_GAUGE.record_max($v);
    }};
}

/// Record a value into a named log2-bucket [`Histogram`] declared statically
/// at the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        static __TELEMETRY_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        __TELEMETRY_HISTOGRAM.record($v);
    }};
}

/// Open a wall-clock span; the returned [`SpanGuard`] records it when
/// dropped. Bind it (`let _span = ...`) or it closes immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global state (registry, span store, enable flag) is shared across
    /// tests in this binary; serialize the ones that reset or snapshot.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guarded() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = guarded();
        reset();
        enable(false);
        counter!("test.off", 5);
        histogram!("test.off.h", 9);
        let _s = span!("test.off.span");
        drop(_s);
        let snap = snapshot();
        assert_eq!(snap.counter("test.off"), 0);
        assert!(snap.histogram("test.off.h").is_none_or(|h| h.count == 0));
        assert_eq!(snap.span_count("test.off.span"), 0);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _g = guarded();
        reset();
        enable(true);
        for i in 0..100u64 {
            counter!("test.acc", 2);
            histogram!("test.acc.h", i);
        }
        enable(false);
        let snap = snapshot();
        assert_eq!(snap.counter("test.acc"), 200);
        let h = snap.histogram("test.acc.h").expect("histogram registered");
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, (0..100).sum::<u64>());
        assert!(h.quantile(0.5) >= 32 && h.quantile(0.5) <= 127);
    }

    #[test]
    fn histogram_quantiles_track_exact_uniform_quantiles() {
        let _g = guarded();
        reset();
        enable(true);
        for v in 1..=100_000u64 {
            histogram!("test.uniform.h", v);
        }
        enable(false);
        let snap = snapshot();
        let h = snap.histogram("test.uniform.h").expect("registered");
        assert_eq!((h.min, h.max), (1, 100_000));
        for q in [0.50, 0.95, 0.99] {
            // Exact quantile at fractional rank q·(n−1) of 1..=100000.
            let exact = 1.0 + q * 99_999.0;
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= 0.02 * exact,
                "p{}: {got} vs exact {exact}",
                q * 100.0
            );
        }
    }

    #[test]
    fn counters_are_thread_safe_and_exact() {
        let _g = guarded();
        reset();
        enable(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        counter!("test.mt", 1);
                    }
                });
            }
        });
        enable(false);
        assert_eq!(snapshot().counter("test.mt"), 80_000);
    }

    #[test]
    fn gauge_tracks_peak() {
        let _g = guarded();
        reset();
        enable(true);
        for v in [3u64, 17, 5] {
            gauge_max!("test.peak", v);
        }
        enable(false);
        assert_eq!(snapshot().gauge("test.peak"), Some(17));
    }

    #[test]
    fn spans_record_wall_and_sim_time() {
        let _g = guarded();
        reset();
        enable(true);
        {
            let mut sp = span!("test.span").with_detail(|| "client-7".to_string());
            sp.set_sim_range(10, 20);
        }
        enable(false);
        let snap = snapshot();
        assert_eq!(snap.span_count("test.span"), 1);
        let rec = snap.spans.iter().find(|s| s.name == "test.span").unwrap();
        assert_eq!(rec.detail.as_deref(), Some("client-7"));
        assert_eq!(rec.sim_start_us, Some(10));
        assert_eq!(rec.sim_end_us, Some(20));
    }

    #[test]
    fn sampler_hits_first_and_periodically() {
        let _g = guarded();
        enable(true);
        static S: Sampler = Sampler::new(10);
        let hits = (0..100).filter(|_| S.hit()).count();
        enable(false);
        assert_eq!(hits, 10, "every 10th draw, starting with the first");
        assert!(!S.hit(), "disabled sampler never hits");
    }

    #[test]
    fn exports_are_well_formed() {
        let _g = guarded();
        reset();
        enable(true);
        counter!("test.export.\"quoted\"", 1);
        histogram!("test.export.h", 1000);
        {
            let mut sp = span!("test.export.span");
            sp.set_sim_range(0, 5);
        }
        enable(false);
        let snap = snapshot();
        let summary = snap.render_summary();
        assert!(summary.contains("test.export.h"));
        let jsonl = snap.to_jsonl();
        assert!(jsonl.lines().count() >= 3);
        assert!(jsonl.contains("\\\"quoted\\\""), "strings are JSON-escaped");
        let trace = snap.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.trim_end().ends_with('}'));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = guarded();
        reset();
        enable(true);
        counter!("test.reset", 7);
        let _s = span!("test.reset.span");
        drop(_s);
        reset();
        enable(false);
        let snap = snapshot();
        assert_eq!(snap.counter("test.reset"), 0);
        assert_eq!(snap.span_count("test.reset.span"), 0);
    }
}
