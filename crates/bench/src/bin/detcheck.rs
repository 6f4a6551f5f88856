//! The determinism gate: one matrix of thread counts and capture settings,
//! every cell diffed against a plain single-thread reference run.
//!
//! ```text
//! cargo run --release -p bench-suite --bin detcheck [--seed N]
//! ```
//!
//! For each world — standard, and the adversarial month with every fault
//! archetype enabled — it runs a 12-hour window (wire fidelity off) at one
//! thread with all capture off, then five cells: 2 threads; 7 threads;
//! 1 thread with the provenance sidecar; 1 thread with forensic tracing;
//! 2 threads with provenance, forensics and runtime telemetry together.
//! Every cell must reproduce the reference's record and connection counts,
//! dataset fingerprint, rendered-report hash and headline pipeline tables.
//! The sidecar and the exemplar store must be present exactly when asked
//! for, and equal across the cells that record them. Any difference exits
//! non-zero.
//!
//! Stdout carries one `dataset hash …, report hash …` line per world;
//! `ci.sh` runs the gate in the default and the `--no-default-features`
//! build and requires those lines to agree, so compiling the recorder out
//! is held to the same world too.

use bench_suite::{dataset_fingerprint, flag_value, report_fingerprint};
use model::{ProvenanceLog, TraceExemplar};
use netprofiler::{pipeline, AnalysisConfig};
use workload::{run_experiment, AdversarialProfile, ExperimentConfig, ForensicsConfig};

/// One point of the matrix: thread count plus which capture is on.
struct Cell {
    name: &'static str,
    threads: usize,
    provenance: bool,
    forensics: bool,
    telemetry: bool,
}

const REFERENCE: Cell = Cell {
    name: "1 thread, capture off",
    threads: 1,
    provenance: false,
    forensics: false,
    telemetry: false,
};

const CELLS: [Cell; 5] = [
    Cell { name: "2 threads", threads: 2, ..REFERENCE },
    Cell { name: "7 threads", threads: 7, ..REFERENCE },
    Cell { name: "provenance", provenance: true, ..REFERENCE },
    Cell { name: "forensics", forensics: true, ..REFERENCE },
    Cell {
        name: "2 threads + provenance + forensics + telemetry",
        threads: 2,
        provenance: true,
        forensics: true,
        telemetry: true,
    },
];

/// What one run produced, reduced to what the gate compares.
struct Outcome {
    records: usize,
    connections: usize,
    dataset_hash: u64,
    report_hash: u64,
    full: pipeline::FullAnalysis,
    sidecar: Option<ProvenanceLog>,
    exemplars: Option<Vec<TraceExemplar>>,
}

fn main() {
    let mut seed = 20050101u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = flag_value(&mut args, "--seed"),
            "--help" | "-h" => {
                println!("detcheck [--seed N]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let failures = check_world("standard", seed, AdversarialProfile::none())
        + check_world("adversarial", seed, AdversarialProfile::adversarial_month());
    if failures > 0 {
        eprintln!("detcheck FAILED: {failures} mismatch(es) against the reference run");
        std::process::exit(1);
    }
}

fn run(cell: &Cell, seed: u64, adversarial: AdversarialProfile) -> Outcome {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 12;
    cfg.wire_fidelity = false;
    cfg.threads = cell.threads;
    cfg.adversarial = adversarial;
    cfg.record_provenance = cell.provenance;
    cfg.forensics = cell.forensics.then(ForensicsConfig::default);
    telemetry::enable(cell.telemetry);
    let out = run_experiment(&cfg);
    let acfg = AnalysisConfig::default().with_threads(cell.threads);
    let full = pipeline::run(&out.dataset, acfg);
    let rendered = report::render_all(&out.dataset, acfg, seed);
    telemetry::enable(false);
    telemetry::reset();
    Outcome {
        records: out.dataset.records.len(),
        connections: out.dataset.connections.len(),
        dataset_hash: dataset_fingerprint(&out.dataset),
        report_hash: report_fingerprint(&rendered),
        full,
        sidecar: out.provenance,
        exemplars: out.forensics.map(|s| s.iter().cloned().collect()),
    }
}

/// Diff every cell of one world against its reference; returns the
/// mismatch count.
fn check_world(world: &str, seed: u64, adversarial: AdversarialProfile) -> u32 {
    eprintln!("detcheck: {world} world, 12 h window, seed {seed}, reference {} ...", REFERENCE.name);
    let r = run(&REFERENCE, seed, adversarial);
    let mut failures = 0u32;
    let mut report = |cell: &str, checks: &[(&str, bool)]| {
        for (what, ok) in checks {
            if !ok {
                eprintln!("  MISMATCH: {cell}: {what}");
                failures += 1;
            }
        }
    };
    report(
        REFERENCE.name,
        &[
            ("sidecar recorded unasked", r.sidecar.is_none()),
            ("exemplars kept unasked", r.exemplars.is_none()),
        ],
    );

    // The first cell that records a sidecar (exemplar store) is the one
    // every later recording cell must match.
    let mut sidecar: Option<ProvenanceLog> = None;
    let mut exemplars: Option<Vec<TraceExemplar>> = None;
    for cell in &CELLS {
        eprintln!("  cell {}", cell.name);
        let got = run(cell, seed, adversarial);
        let stamps = got.sidecar.as_ref().map(|log| log.records.len());
        report(
            cell.name,
            &[
                ("transaction count", got.records == r.records),
                ("connection count", got.connections == r.connections),
                ("dataset fingerprint", got.dataset_hash == r.dataset_hash),
                ("rendered report", got.report_hash == r.report_hash),
                ("table 5 (blame)", got.full.table5 == r.full.table5),
                (
                    "table 5 conservative",
                    got.full.table5_conservative == r.full.table5_conservative,
                ),
                ("overall breakdown", got.full.overall == r.full.overall),
                ("permanent pairs", got.full.permanent_pairs == r.full.permanent_pairs),
                ("sidecar exactly when asked", got.sidecar.is_some() == cell.provenance),
                ("exemplars exactly when asked", got.exemplars.is_some() == cell.forensics),
                ("one stamp per record", stamps.is_none_or(|n| n == got.records)),
                (
                    "exemplars kept",
                    got.exemplars.as_ref().is_none_or(|x| !x.is_empty()),
                ),
                (
                    "sidecar equal across cells",
                    same_as_first(&mut sidecar, got.sidecar),
                ),
                (
                    "exemplars equal across cells",
                    same_as_first(&mut exemplars, got.exemplars),
                ),
            ],
        );
    }

    println!(
        "detcheck {world}: {} transactions, {} connections, dataset hash {:016x}, \
         report hash {:016x}",
        r.records, r.connections, r.dataset_hash, r.report_hash
    );
    if failures == 0 {
        eprintln!("detcheck passed: {world} — every cell matches the reference");
    }
    failures
}

/// Keep the first value seen; is `got` (if any) equal to it?
fn same_as_first<T: PartialEq>(first: &mut Option<T>, got: Option<T>) -> bool {
    match (first.as_ref(), got) {
        (Some(f), Some(g)) => *f == g,
        (None, Some(g)) => {
            *first = Some(g);
            true
        }
        (_, None) => true,
    }
}
