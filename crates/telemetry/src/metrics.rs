//! Static metric primitives: counters, gauges, histograms, samplers.
//!
//! Every metric is a `static` declared at its call site (usually through the
//! [`counter!`](crate::counter)/[`gauge_max!`](crate::gauge_max)/
//! [`histogram!`](crate::histogram) macros) and registers itself in a global
//! registry on first use, so snapshots see exactly the metrics a run
//! touched. Counters are sharded across cache-line-padded atomics indexed by
//! a per-thread slot, which keeps the 134-client parallel hot path free of
//! cache-line ping-pong.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use crate::export::{BucketSnap, CounterSnap, GaugeSnap, HistogramSnap, Snapshot};

/// Shard count for counters (power of two).
const SHARDS: usize = 8;

/// Log2 histogram bucket count: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A cache-line-padded atomic, so neighbouring shards never share a line.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat seed
const PADDED_ZERO: PaddedU64 = PaddedU64(AtomicU64::new(0));
#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);

/// One sharded tally (the storage behind a counter or one label of a
/// counter vector).
struct Shards([PaddedU64; SHARDS]);

#[allow(clippy::declare_interior_mutable_const)]
const SHARDS_ZERO: Shards = Shards([PADDED_ZERO; SHARDS]);

impl Shards {
    #[inline]
    fn add(&self, n: u64) {
        self.0[thread_shard()].0.fetch_add(n, Relaxed);
    }

    fn sum(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.0 {
            s.0.store(0, Relaxed);
        }
    }
}

/// Anything the registry can snapshot and zero.
pub(crate) trait Metric: Sync {
    fn collect(&self, snap: &mut Snapshot);
    fn reset(&self);
}

static REGISTRY: Mutex<Vec<&'static dyn Metric>> = Mutex::new(Vec::new());

fn register(registered: &AtomicBool, metric: &'static dyn Metric) {
    if !registered.swap(true, Relaxed) {
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(metric);
    }
}

pub(crate) fn collect_all(snap: &mut Snapshot) {
    for m in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        m.collect(snap);
    }
}

pub(crate) fn reset_all() {
    for m in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        m.reset();
    }
}

/// Per-thread shard index: threads take the next slot on first use.
#[inline]
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Relaxed) & (SHARDS - 1);
            s.set(v);
        }
        v
    })
}

/// A monotone event counter.
pub struct Counter {
    name: &'static str,
    shards: Shards,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            shards: SHARDS_ZERO,
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n`. A no-op unless the recorder is compiled in and enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if crate::enabled() {
            register(&self.registered, self);
            self.shards.add(n);
        }
    }

    /// Current total across shards.
    pub fn value(&self) -> u64 {
        self.shards.sum()
    }
}

impl Metric for Counter {
    fn collect(&self, snap: &mut Snapshot) {
        snap.counters.push(CounterSnap {
            name: self.name.to_string(),
            value: self.value(),
        });
    }

    fn reset(&self) {
        self.shards.reset();
    }
}

/// A family of counters sharing a name, one per fixed label. Snapshots
/// expose each cell as `name{label}`.
pub struct CounterVec<const N: usize> {
    name: &'static str,
    labels: [&'static str; N],
    cells: [Shards; N],
    registered: AtomicBool,
}

impl<const N: usize> CounterVec<N> {
    pub const fn new(name: &'static str, labels: [&'static str; N]) -> CounterVec<N> {
        CounterVec {
            name,
            labels,
            cells: [SHARDS_ZERO; N],
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n` to the cell at `idx` (caller maps its enum to an index).
    #[inline]
    pub fn add(&'static self, idx: usize, n: u64) {
        if crate::enabled() {
            register(&self.registered, self);
            self.cells[idx].add(n);
        }
    }

    /// Current total of the cell at `idx`.
    pub fn value(&self, idx: usize) -> u64 {
        self.cells[idx].sum()
    }
}

impl<const N: usize> Metric for CounterVec<N> {
    fn collect(&self, snap: &mut Snapshot) {
        for (label, cell) in self.labels.iter().zip(&self.cells) {
            snap.counters.push(CounterSnap {
                name: format!("{}{{{label}}}", self.name),
                value: cell.sum(),
            });
        }
    }

    fn reset(&self) {
        for c in &self.cells {
            c.reset();
        }
    }
}

/// A peak-tracking gauge (e.g. maximum event-queue depth).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Raise the gauge to at least `v`.
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if crate::enabled() {
            register(&self.registered, self);
            self.value.fetch_max(v, Relaxed);
        }
    }

    pub fn value(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

impl Metric for Gauge {
    fn collect(&self, snap: &mut Snapshot) {
        snap.gauges.push(GaugeSnap {
            name: self.name.to_string(),
            value: self.value(),
        });
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A log2-bucket histogram of `u64` samples (latencies in microseconds,
/// sizes in bytes, …). Bucket 0 counts zeros; bucket `i` counts values in
/// `[2^(i-1), 2^i)`. The smallest and largest samples are kept too, so
/// quantile estimates interpolate within the occupied part of a bucket.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [ATOMIC_ZERO; BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if crate::enabled() {
            register(&self.registered, self);
            let idx = if v == 0 {
                0
            } else {
                64 - v.leading_zeros() as usize
            };
            self.buckets[idx].fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
            self.min.fetch_min(v, Relaxed);
            self.max.fetch_max(v, Relaxed);
        }
    }
}

impl Metric for Histogram {
    fn collect(&self, snap: &mut Snapshot) {
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            count += c;
            if c > 0 {
                let (lo, hi) = bucket_bounds(i);
                buckets.push(BucketSnap { lo, hi, count: c });
            }
        }
        snap.histograms.push(HistogramSnap {
            name: self.name.to_string(),
            count,
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets,
        });
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// Inclusive value range of log2 bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else {
        (1u64 << (i - 1), (1u64 << (i - 1)) | ((1u64 << (i - 1)) - 1))
    }
}

/// A 1-in-`period` sampler for keeping per-transaction span tracing cheap:
/// the first draw always hits, then every `period`-th. Never hits while the
/// recorder is disabled. Sampling decisions depend on call interleaving and
/// are therefore *not* deterministic across thread counts — use only for
/// diagnostics (spans), never to gate simulation behaviour.
pub struct Sampler {
    period: u64,
    n: AtomicU64,
}

impl Sampler {
    pub const fn new(period: u64) -> Sampler {
        assert!(period > 0);
        Sampler {
            period,
            n: AtomicU64::new(0),
        }
    }

    /// Should this occurrence be sampled?
    #[inline]
    pub fn hit(&self) -> bool {
        crate::enabled() && self.n.fetch_add(1, Relaxed).is_multiple_of(self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_contiguous() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        for i in 1..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "bucket {i} and {} must touch", i + 1);
        }
        let (_, top) = bucket_bounds(BUCKETS - 1);
        assert_eq!(top, u64::MAX);
    }
}
