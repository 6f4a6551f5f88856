//! Regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [--scale quick|stress|repro|paper] [--seed N] [--only ID[,ID...]]
//!           [--export DIR] [--profile [DIR]] [--html FILE [--bench-dir DIR]]
//! ```
//!
//! `--profile` switches the telemetry recorder on for the whole run and
//! writes `telemetry.jsonl` + `trace.json` (Chrome trace format) to DIR
//! (default `profile/`), with the stage summary on stderr.
//!
//! `--html FILE` writes the whole run as one self-contained HTML page
//! (inline CSS/JS, zero external requests): run manifest, every paper
//! table/figure, paper-vs-measured comparison, the ground-truth attribution
//! audit, quarantine summary, telemetry stage profile, and the
//! bench-trajectory panel over the committed `BENCH_*.json` artifacts
//! (`--bench-dir` points at them; default `.`). A machine-readable
//! `manifest.json` is written beside the page. The flag turns on
//! provenance recording and telemetry — both proven zero-perturbation, so
//! the text output on stdout stays byte-identical.
//!
//! IDs: table1 table2 table3 fig1 table4 fig2 fig3 permanent fig4 table5
//! episodes table6 table7 table8 replicas bgp fig5 fig6 fig7 table9 pairs
//! medians loss digcheck compare. Default: all of them.

use bench_suite::{flag_value, Scale};
use netprofiler::{Analysis, AnalysisConfig};
use report::render;
use std::time::Instant;
use workload::run_experiment;

fn main() {
    let mut scale = Scale::Quick;
    let mut seed = 20050101u64;
    let mut only: Option<Vec<String>> = None;
    let mut export_dir: Option<std::path::PathBuf> = None;
    let mut profile_dir: Option<std::path::PathBuf> = None;
    let mut html_path: Option<std::path::PathBuf> = None;
    let mut bench_dir = std::path::PathBuf::from(".");

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--html" => html_path = Some(flag_value(&mut args, "--html")),
            "--bench-dir" => bench_dir = flag_value(&mut args, "--bench-dir"),
            "--profile" => {
                // Optional DIR operand: consume the next arg unless it is a flag.
                let dir = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().unwrap(),
                    _ => "profile".to_string(),
                };
                profile_dir = Some(std::path::PathBuf::from(dir));
            }
            "--scale" => scale = flag_value(&mut args, "--scale"),
            "--seed" => seed = flag_value(&mut args, "--seed"),
            "--export" => export_dir = Some(flag_value(&mut args, "--export")),
            "--only" => {
                let ids: String = flag_value(&mut args, "--only");
                only = Some(ids.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--help" | "-h" => {
                println!(
                    "reproduce [--scale quick|stress|repro|paper] [--seed N] [--only IDs] [--export DIR] \
                     [--profile [DIR]] [--html FILE [--bench-dir DIR]]\n\
                     regenerates the tables/figures of 'A Study of End-to-End Web \
                     Access Failures' (CoNEXT 2006) from a simulated experiment"
                );
                return;
            }
            other => {
                only = Some(vec![other.to_string()]);
            }
        }
    }

    if profile_dir.is_some() || html_path.is_some() {
        telemetry::enable(true);
    }

    let mut config = scale.config(seed);
    if html_path.is_some() {
        // Truth capture is proven zero-perturbation (detcheck's matrix), so
        // the page's audit section and trace waterfalls ride along without
        // changing the dataset or the text output.
        config.record_provenance = true;
        config.forensics = Some(workload::ForensicsConfig::default());
    }
    eprintln!(
        "running experiment: {} hours x {} accesses/hour x 80 sites x 134 clients (~{} transactions), seed {seed}",
        config.hours,
        config.iterations_per_hour,
        config.expected_transactions()
    );
    let t0 = Instant::now();
    let out = run_experiment(&config);
    let ds = &out.dataset;
    eprintln!(
        "experiment done in {:.1}s: {} transactions, {} connections",
        t0.elapsed().as_secs_f64(),
        ds.records.len(),
        ds.connections.len()
    );

    let t1 = Instant::now();
    let a5 = Analysis::new(ds, AnalysisConfig::default());
    let a10 = a5.with_threshold(0.10);
    eprintln!("analysis indexed in {:.1}s", t1.elapsed().as_secs_f64());

    let wanted = |id: &str| only.as_ref().is_none_or(|ids| ids.iter().any(|x| x == id || x == "all"));
    let emit = |id: &str, body: String| {
        if wanted(id) {
            println!("==== {id} ====");
            println!("{body}");
        }
    };

    emit("table1", render::render_table1(ds));
    emit("table2", render::render_table2(ds));
    emit("table3", render::render_table3(&a5.cds));
    emit("fig1", render::render_figure1(&a5.cds));
    emit("table4", render::render_table4(ds));
    emit("fig2", render::render_figure2(ds));
    emit("fig3", render::render_figure3(ds));
    emit("permanent", render::render_permanent(&a5));
    emit("fig4", render::render_figure4(&a5));
    emit("table5", render::render_table5(&a5, &a10));
    emit("episodes", render::render_episode_stats(&a5));
    emit("table6", render::render_table6(&a5, 12));
    emit("table7", render::render_table7(&a5, seed));
    emit("table8", render::render_table8(&a5, 8));
    emit("replicas", render::render_replicas(&a5));
    emit("bgp", render::render_bgp(&a5));
    if wanted("fig5") {
        if let Some(csv) = render::render_client_timeseries_csv(ds, "howard") {
            println!("==== fig5 (nodea.howard.edu-like client; CSV) ====");
            print_truncated(&csv, 30);
        }
    }
    emit("fig6", {
        let csv = render::render_figure6_csv(&a5);
        let mut s = String::from("(CSV: TCP failure rate during severe instability)\n");
        s.push_str(&csv);
        s
    });
    if wanted("fig7") {
        if let Some(csv) = render::render_client_timeseries_csv(ds, "kscy") {
            println!("==== fig7 (kscy-like client; CSV) ====");
            print_truncated(&csv, 30);
        }
    }
    emit("table9", render::render_table9(&a5, &["iitb", "royal"]));
    emit("pairs", render::render_pair_episodes(&a5));
    emit("medians", render::render_medians(&a5.cds));
    emit("timing", render::render_timing(ds));
    emit("loss", render::render_loss(ds));
    emit("digcheck", render::render_digcheck(ds));

    if let Some(dir) = export_dir {
        match report::export::export_dataset(ds, &dir)
            .and_then(|n| Ok(n + report::export::export_figures(&a5, &dir)?))
        {
            Ok(n) => eprintln!("exported {n} CSV files to {}", dir.display()),
            Err(e) => eprintln!("export failed: {e}"),
        }
    }

    if wanted("compare") {
        println!("==== compare (paper vs measured) ====");
        let comps = render::comparisons(ds, &a5, &a10);
        let ok = comps.iter().filter(|c| c.ok).count();
        for c in &comps {
            println!("{}", c.line());
        }
        println!("\n{ok}/{} comparisons within the paper's shape", comps.len());
    }

    if let Some(path) = html_path {
        match write_html_report(&path, &bench_dir, &out, &a5, &a10, &config, scale, seed) {
            Ok(()) => eprintln!(
                "HTML report written: {} (+ manifest.json beside it)",
                path.display()
            ),
            Err(e) => {
                eprintln!("HTML report failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(dir) = profile_dir {
        if let Err(e) = bench_suite::write_profile(&dir) {
            eprintln!("profile write failed: {e}");
        }
    }
}

/// Assemble and write the self-contained HTML page plus `manifest.json`.
#[allow(clippy::too_many_arguments)]
fn write_html_report(
    path: &std::path::Path,
    bench_dir: &std::path::Path,
    out: &workload::ExperimentOutput,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    config: &workload::ExperimentConfig,
    scale: Scale,
    seed: u64,
) -> std::io::Result<()> {
    let manifest = bench_suite::manifest_for(out, config, scale.name(), seed);
    let snapshot = telemetry::snapshot();
    let stage_profile = snapshot.stage_profile();

    // Bench-trajectory sources: the committed regression artifacts.
    let mut sources = Vec::new();
    let mut missing = Vec::new();
    for name in bench_suite::BENCH_ARTIFACTS {
        match std::fs::read_to_string(bench_dir.join(name)) {
            Ok(text) => sources.push((name.to_string(), text)),
            Err(_) => missing.push(name.to_string()),
        }
    }

    let page = bench_suite::html_page(
        out,
        a5,
        a10,
        seed,
        &manifest,
        &sources,
        missing,
        &stage_profile,
    );

    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, page)?;
    let manifest_path = path
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("manifest.json");
    std::fs::write(manifest_path, manifest.to_json())?;
    Ok(())
}

fn print_truncated(csv: &str, max_lines: usize) {
    for (i, line) in csv.lines().enumerate() {
        if i >= max_lines {
            println!("... ({} more lines)", csv.lines().count() - max_lines);
            break;
        }
        println!("{line}");
    }
    println!();
}
