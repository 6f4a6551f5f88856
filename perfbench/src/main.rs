//! The repository benchmark.
//!
//! ```text
//! perfbench --workload quick-wire|adversarial-audit
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it runs passes over the workload's full reproduce path
//! with the telemetry recorder off until `--seconds` have passed (at least
//! two), and prints the end-to-end metrics as medians over them. With
//! `--trace 1` it runs the same workload untraced in a child process, then
//! one pass traced in this process, then times each layer's public
//! functions on inputs from the workload's own world, and prints the
//! per-layer metrics.
//!
//! `perfbench/README.md` lists the workloads, the metrics and the layer →
//! end-to-end mapping.
//!
//! Every run checks its outputs and prints, as its last stdout line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the run manifest. The exit code is non-zero when any check
//! fails.

mod json;
mod layers;
mod path;
mod stats;
mod workloads;

use json::Obj;
use std::process::ExitCode;
use workloads::Workload;

/// The workload seed when none is given, and the seed every committed
/// claim is first measured on.
const DEFAULT_SEED: u64 = 20050101;

/// The end-to-end metrics an untraced run prints, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [&str; 5] = [
    "run_s",
    "setup_s",
    "sim_txn_per_s",
    "analysis_s",
    "peak_rss_mb",
];

/// The per-layer metrics a traced run prints, as `BENCHMARK.json` lists
/// them.
pub const PER_LAYER: [&str; 35] = [
    "dnswire.roundtrip_us",
    "httpsim.roundtrip_us",
    "dnssim.resolve_us",
    "dnssim.lookups_per_txn",
    "dnssim.cache_hit_ratio",
    "tcpsim.connect_us",
    "tcpsim.conns_per_txn",
    "tcpsim.retx_per_conn",
    "tcpsim.syn_retx_per_conn",
    "webclient.txn_us",
    "webclient.truth_capture_s",
    "netsim.events_per_txn",
    "netsim.queue_depth_peak",
    "workload.simulate_s",
    "workload.collect_s",
    "workload.build_bgp_s",
    "workload.client_wall_p50_ms",
    "workload.client_wall_p90_ms",
    "workload.client_wall_max_ms",
    "columnar.from_dataset_s",
    "columnar.bytes_per_txn",
    "columnar.row_bytes_per_txn",
    "core.index_f5_s",
    "core.index_f10_s",
    "core.grids_s",
    "core.permanent_s",
    "core.pipeline_s",
    "core.row_scans_s",
    "core.audit_s",
    "audit.blame_agreement",
    "report.paper_blocks_s",
    "report.comparisons_s",
    "simulate.unattributed_share",
    "trace.run_s",
    "trace.overhead_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 5.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The end of one benchmark run: what it attempted, what failed, and the
/// metrics it measured.
pub struct Outcome {
    pub manifest: Obj,
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    let mut violations = outcome.violations;
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut printed: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut wanted = expected.to_vec();
    printed.sort_unstable();
    wanted.sort_unstable();
    if printed != wanted {
        violations.push(format!(
            "measured metrics {printed:?} are not the declared {wanted:?}"
        ));
    }
    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("perfbench: output check failed: {v}");
    }
    // A run whose output check fails loses every transaction it attempted.
    let failed = if correct {
        outcome.failed
    } else {
        outcome.attempted
    };
    let mut metrics = Obj::new();
    for (name, value, unit) in &outcome.metrics {
        metrics = metrics.obj(name, Obj::new().num("value", *value).str("unit", unit));
    }
    println!("{}", Obj::new().obj("manifest", outcome.manifest).render());
    println!(
        "{}",
        Obj::new()
            .bool("correct", correct)
            .int("attempted", outcome.attempted)
            .int("failed", failed)
            .obj("metrics", metrics)
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run passes over the full path for `seconds` (at least two), timing
/// world rebuilds between their stages, and report the end-to-end metrics.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let config = workload.config(seed);
    let plan = path::Plan {
        seconds,
        min_passes: 2,
        time_setup: true,
    };
    let run = path::run(&config, &plan);
    let t = &run.times;
    eprintln!(
        "perfbench: {}: run {:.3}s (setup {:.4}s, simulate {:.3}s, collect {:.3}s, analysis {:.3}s), medians of {} passes and {} analyses",
        workload.name(),
        t.run_s,
        run.setup_s,
        t.simulate_s,
        t.collect_s,
        t.analysis_s,
        run.samples.passes,
        run.samples.analyses,
    );
    let mut violations = run.violations.clone();
    if config.record_provenance {
        violations.extend(path::reference_audit(DEFAULT_SEED));
    }
    if !run.peak_rss_mb.is_finite() {
        violations.push("cannot read the peak resident memory from /proc/self/status".to_string());
    }
    let metrics = vec![
        ("run_s".to_string(), t.run_s, "s"),
        ("setup_s".to_string(), run.setup_s, "s"),
        ("sim_txn_per_s".to_string(), t.sim_txn_per_s, "1/s"),
        ("analysis_s".to_string(), t.analysis_s, "s"),
        ("peak_rss_mb".to_string(), run.peak_rss_mb, "MB"),
    ];
    let manifest = manifest(workload, seed, &config, false, &run)
        .num("simulate_s", t.simulate_s)
        .num("client_wall_sum_s", t.client_wall_sum_s)
        .num("runner_setup_s", t.runner_setup_s);
    Outcome {
        manifest,
        violations,
        attempted: config.expected_transactions() * run.samples.passes as u64,
        failed: run.lost_transactions(&config) * run.samples.passes as u64,
        metrics,
    }
}

/// What produced a result: machine, build, workload shape, seed and the
/// fingerprints of what the program computed.
pub fn manifest(
    workload: Workload,
    seed: u64,
    config: &workload::ExperimentConfig,
    trace: bool,
    run: &path::PathRun,
) -> Obj {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build = Obj::new()
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .str(
            "features",
            "telemetry/enabled (recorder compiled in, switched on only when tracing)",
        );
    Obj::new()
        .str("workload", workload.name())
        .int("seed", seed)
        .int("nproc", nproc as u64)
        .int("threads", config.threads as u64)
        .int("threads_effective", run.out.report.threads_effective as u64)
        .obj(
            "config",
            Obj::new()
                .int("hours", u64::from(config.hours))
                .int("iterations_per_hour", u64::from(config.iterations_per_hour))
                .int("expected_transactions", config.expected_transactions())
                .bool("wire_fidelity", config.wire_fidelity)
                .bool("record_traces", config.record_traces)
                .bool("record_provenance", config.record_provenance)
                .bool("forensics", config.forensics.is_some())
                .str("adversarial", &format!("{:?}", config.adversarial))
                .num("fault_scale", config.fault_scale)
                .str("digest", &format!("{:016x}", config.digest())),
        )
        .obj("build", build)
        .bool("tracing", trace)
        .str(
            "dataset_fingerprint",
            &format!("{:016x}", run.dataset_fingerprint),
        )
        .str(
            "report_fingerprint",
            &format!("{:016x}", run.report_fingerprint),
        )
        .int("transactions", run.out.dataset.records.len() as u64)
        .int("connections", run.out.dataset.connections.len() as u64)
        .opt_num("blame_agreement", run.blame_agreement)
        .obj(
            "samples",
            Obj::new()
                .int("passes", run.samples.passes as u64)
                .int("analyses", run.samples.analyses as u64)
                .int("setups", run.samples.setups as u64),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in code and in `BENCHMARK.json` are the same.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\": \"").count();
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not declared"
            );
        }
        let workloads = Workload::ALL.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--workload",
            "quick-wire",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::QuickWire, 7, 3.0, true)
        );
        assert_eq!(
            parse(&["--workload", "adversarial-audit"]).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "quick-wire", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "quick-wire", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "quick-wire", "--seed"]).is_err());
    }
}
