//! The traced run: per-layer metrics.
//!
//! Every number here is measured from outside the program. Analysis and
//! render layers are timed around their public calls on the workload's own
//! dataset. Simulator layers are replayed: each layer's public function
//! runs on inputs from the workload's world (the 80-site zone tree and
//! origins, its wire fidelity and capture settings, its mix of TCP
//! outcomes), and its cost per call is multiplied by the call counts the
//! telemetry recorder already keeps. What those products leave of the
//! clients' wall time is `simulate.unattributed_share`.

use crate::json::Obj;
use crate::path::{self, timed};
use crate::stats::{median, quantile};
use crate::workloads::{self, Workload};
use crate::{manifest, Outcome};
use dnssim::{authoritative_answer, LdnsCache, NoFaults, ResolverConfig, StubResolver, ZoneTree};
use dnswire::{DomainName, Message, RecordType};
use httpsim::{HttpRequest, HttpResponse, Origin};
use model::{ClientCategory, ClientId, ColumnarDataset, Dataset, SimTime};
use netprofiler::{bgp_corr, dns_analysis, grid, loss_corr, permanent, tcp_analysis, timing};
use netsim::SimRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tcpsim::{simulate_connection_into, PathQuality, ServerBehavior, TcpConfig, Trace};
use webclient::env::HealthyEnv;
use webclient::{ClientSession, WgetConfig};
use workload::{build_fleet, build_sites, run_experiment, ExperimentConfig, SiteSpec};

/// Wall time each replay spends, at least, before its median is taken.
const REPLAY_BUDGET_S: f64 = 1.0;
/// Fewest rounds a replay's median is taken over.
const MIN_ROUNDS: usize = 5;

/// One metric line: name, value, unit.
type Metric = (String, f64, &'static str);

/// What the untraced run of the same workload reported.
struct Baseline {
    run_s: f64,
    simulate_s: f64,
    client_wall_sum_s: f64,
    dataset_fingerprint: String,
    report_fingerprint: String,
}

/// Repeat `f` in rounds until [`REPLAY_BUDGET_S`] has passed and at least
/// [`MIN_ROUNDS`] ran; each round returns its call count. Gives the median
/// µs per call over rounds and the number of rounds.
fn replay(mut f: impl FnMut() -> u64) -> (f64, usize) {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < REPLAY_BUDGET_S {
        let t = Instant::now();
        let calls = f();
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64);
    }
    (median(&per_call), per_call.len())
}

/// Median wall seconds of `rounds` calls of `f`.
fn median_secs<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..rounds).map(|_| timed(|| black_box(f())).1).collect();
    median(&secs)
}

pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let config = workload.config(seed);
    let acfg = path::analysis_config(&config);
    let mut violations = Vec::new();

    // --- The untraced run, in a process of its own ---------------------
    let baseline = untraced_child(workload, seed, seconds).unwrap_or_else(|e| {
        violations.push(e);
        Baseline {
            run_s: f64::NAN,
            simulate_s: f64::NAN,
            client_wall_sum_s: f64::NAN,
            dataset_fingerprint: String::new(),
            report_fingerprint: String::new(),
        }
    });

    // --- The traced run -------------------------------------------------
    telemetry::reset();
    telemetry::enable(true);
    let plan = path::Plan {
        seconds: 0.0,
        min_passes: 1,
        time_setup: false,
    };
    let run = path::run(&config, &plan);
    let snap = telemetry::snapshot();
    telemetry::enable(false);
    let traced_manifest = manifest(workload, seed, &config, true, &run);
    let lost_transactions = run.lost_transactions(&config);
    violations.extend(run.violations.iter().cloned());
    let dataset_fingerprint = format!("{:016x}", run.dataset_fingerprint);
    let report_fingerprint = format!("{:016x}", run.report_fingerprint);
    if dataset_fingerprint != baseline.dataset_fingerprint
        || report_fingerprint != baseline.report_fingerprint
    {
        violations.push(format!(
            "traced fingerprints ({dataset_fingerprint}, {report_fingerprint}) differ from \
             the untraced run's ({}, {})",
            baseline.dataset_fingerprint, baseline.report_fingerprint
        ));
    }
    let txns = run.out.dataset.records.len() as f64;
    let sum = |prefix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == prefix || c.name.starts_with(&format!("{prefix}{{")))
            .map(|c| c.value)
            .sum()
    };
    let lookups = sum("dns.lookups") as f64;
    let hit_ratio = sum("dns.cache_hits") as f64 / lookups;
    let conns = sum("tcp.connections") as f64;
    let http_exchanges = sum("http.responses") as f64;
    let tcp_mix = TcpMix {
        healthy: sum("tcp.connections").saturating_sub(sum("tcp.failures")),
        no_connection: sum("tcp.failures{no_connection}"),
        no_response: sum("tcp.failures{no_response}") + sum("tcp.failures{no_or_partial_response}"),
        partial_response: sum("tcp.failures{partial_response}"),
    };
    let walls_ms: Vec<f64> = run
        .out
        .report
        .clients
        .iter()
        .map(|c| c.wall.as_secs_f64() * 1e3)
        .collect();
    let t = &run.times;
    let mut m: Vec<Metric> = vec![
        ("trace.run_s".into(), t.run_s, "s"),
        ("trace.overhead_s".into(), t.run_s - baseline.run_s, "s"),
        ("workload.simulate_s".into(), t.simulate_s, "s"),
        ("workload.collect_s".into(), t.collect_s, "s"),
        ("workload.build_bgp_s".into(), t.build_bgp_s, "s"),
        (
            "workload.client_wall_p50_ms".into(),
            quantile(&walls_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "workload.client_wall_p90_ms".into(),
            quantile(&walls_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "workload.client_wall_max_ms".into(),
            quantile(&walls_ms, 1.0).unwrap_or(f64::NAN),
            "ms",
        ),
        ("dnssim.lookups_per_txn".into(), lookups / txns, "count"),
        ("dnssim.cache_hit_ratio".into(), hit_ratio, "ratio"),
        ("tcpsim.conns_per_txn".into(), conns / txns, "count"),
        (
            "tcpsim.retx_per_conn".into(),
            sum("tcp.retransmissions_sent") as f64 / conns,
            "count",
        ),
        (
            "tcpsim.syn_retx_per_conn".into(),
            sum("tcp.syn_retransmissions") as f64 / conns,
            "count",
        ),
        (
            "netsim.events_per_txn".into(),
            sum("engine.events_dispatched") as f64 / txns,
            "count",
        ),
        (
            "netsim.queue_depth_peak".into(),
            snap.gauge("engine.queue_depth_peak")
                .map_or(f64::NAN, |g| g as f64),
            "count",
        ),
        ("core.index_f5_s".into(), t.index_s[0], "s"),
        ("core.index_f10_s".into(), t.index_s[1], "s"),
        ("report.paper_blocks_s".into(), t.paper_blocks_s, "s"),
        ("report.comparisons_s".into(), t.comparisons_s, "s"),
    ];

    // --- Columnar and analysis layers, on the traced dataset ------------
    m.extend(analysis_layers(&run.out.dataset, &config));
    let origins = run.out.truth.origins.clone();
    let (traced_audit_s, traced_agreement) = (t.audit_s, run.blame_agreement);
    drop(run);

    // --- Truth capture flipped: its cost, and the audit where the
    // workload itself records no truth -----------------------------------
    let flipped = workloads::with_truth_capture_flipped(&config);
    let other = run_experiment(&flipped);
    let other_simulate_s = other
        .report
        .stage_walls
        .iter()
        .find(|(s, _)| *s == "simulate_clients")
        .map_or(f64::NAN, |(_, d)| d.as_secs_f64());
    let other_fingerprint = format!("{:016x}", bench_suite::dataset_fingerprint(&other.dataset));
    if other_fingerprint != dataset_fingerprint {
        violations.push(format!(
            "truth capture changed the dataset: {other_fingerprint} vs {dataset_fingerprint}"
        ));
    }
    let truth_capture_s = if workloads::captures_truth(&config) {
        baseline.simulate_s - other_simulate_s
    } else {
        other_simulate_s - baseline.simulate_s
    };
    let (audit_s, agreement) = match (&other.provenance, traced_audit_s) {
        (_, Some(s)) => (s, traced_agreement.unwrap_or(f64::NAN)),
        (Some(log), None) => {
            let a5 = netprofiler::Analysis::new(&other.dataset, acfg);
            let (report, s) = timed(|| netprofiler::audit::audit(&a5, log));
            (s, report.blame.agreement())
        }
        (None, None) => (f64::NAN, f64::NAN),
    };
    drop(other);
    m.push(("webclient.truth_capture_s".into(), truth_capture_s, "s"));
    m.push(("core.audit_s".into(), audit_s, "s"));
    m.push(("audit.blame_agreement".into(), agreement, "ratio"));

    // --- Simulator layers, replayed -------------------------------------
    let world = World::build(&config, origins);
    let (dnswire_us, dnswire_rounds) = world.dnswire_roundtrip();
    let (http_us, http_rounds) = world.http_roundtrip();
    let resolve = world.resolve(&config, &mut violations);
    let resolve_us = hit_ratio * resolve.hit_us + (1.0 - hit_ratio) * resolve.miss_us;
    let (connect_us, tcp_rounds) = world.connect(&config, &tcp_mix);
    let (txn_us, txn_rounds) = world.transactions(&config);
    // The replays' µs per call times the traced call counts. Resolution
    // already holds the DNS codec; the HTTP codec runs only with wire
    // fidelity on.
    let http_codec_calls = if config.wire_fidelity {
        http_exchanges
    } else {
        0.0
    };
    let attributed_s =
        (lookups * resolve_us + conns * connect_us + http_codec_calls * http_us) / 1e6;
    m.extend([
        ("dnswire.roundtrip_us".into(), dnswire_us, "us"),
        ("httpsim.roundtrip_us".into(), http_us, "us"),
        ("dnssim.resolve_us".into(), resolve_us, "us"),
        ("tcpsim.connect_us".into(), connect_us, "us"),
        ("webclient.txn_us".into(), txn_us, "us"),
        (
            "simulate.unattributed_share".into(),
            1.0 - attributed_s / baseline.client_wall_sum_s,
            "ratio",
        ),
    ]);
    for (name, v, _) in &m {
        if !v.is_finite() {
            violations.push(format!("per-layer metric {name} was not measured"));
        }
    }

    let manifest = traced_manifest
        .obj(
            "baseline",
            Obj::new()
                .num("run_s", baseline.run_s)
                .num("simulate_s", baseline.simulate_s)
                .num("client_wall_sum_s", baseline.client_wall_sum_s),
        )
        .int("client_walls", walls_ms.len() as u64)
        .num("truth_capture_flipped_simulate_s", other_simulate_s)
        .obj(
            "replay_rounds",
            Obj::new()
                .int("dnswire", dnswire_rounds as u64)
                .int("httpsim", http_rounds as u64)
                .int("dnssim", resolve.rounds as u64)
                .int("tcpsim", tcp_rounds as u64)
                .int("webclient", txn_rounds as u64),
        )
        .obj(
            "traced_calls",
            Obj::new()
                .num("dns_lookups", lookups)
                .num("tcp_connections", conns)
                .num("http_exchanges", http_exchanges)
                .num("attributed_s", attributed_s),
        );
    Outcome {
        manifest,
        violations,
        attempted: config.expected_transactions(),
        failed: lost_transactions,
        metrics: m,
    }
}

/// Run `--trace 0` of the same workload as a child process and read its
/// result and manifest lines.
fn untraced_child(workload: Workload, seed: u64, seconds: f64) -> Result<Baseline, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the untraced child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("the untraced child failed ({})", out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or_default();
    let manifest = lines.next().unwrap_or_default();
    let num = |line: &str, key: &str| -> Result<f64, String> {
        raw_field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("the untraced child printed no {key}"))
    };
    let text = |key: &str| -> Result<String, String> {
        raw_field(manifest, key)
            .map(|v| v.trim_matches('"').to_string())
            .ok_or_else(|| format!("the untraced child printed no {key}"))
    };
    Ok(Baseline {
        run_s: num(result, "run_s\": {\"value")?,
        simulate_s: num(manifest, "simulate_s")?,
        client_wall_sum_s: num(manifest, "client_wall_sum_s")?,
        dataset_fingerprint: text("dataset_fingerprint")?,
        report_fingerprint: text("report_fingerprint")?,
    })
}

/// The raw JSON token after `"key": ` in `line`, up to the next `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Columnar conversion and the analysis layers, each timed around its
/// public call on `ds`.
fn analysis_layers(ds: &Dataset, config: &ExperimentConfig) -> Vec<Metric> {
    let acfg = path::analysis_config(config);
    let from_dataset_s = median_secs(3, || ColumnarDataset::from_dataset(ds));
    let cds = ColumnarDataset::from_dataset(ds);
    let memory = cds.memory();
    let permanent_s = median_secs(3, || permanent::detect(&cds, &acfg));
    let pairs = permanent::detect(&cds, &acfg);
    let grids_s = median_secs(3, || {
        (
            grid::client_connection_grid(&cds, &pairs, acfg.threads),
            grid::server_connection_grid(&cds, &pairs, acfg.threads),
            grid::transaction_outcome_grids(&cds, &pairs, &acfg),
        )
    });
    drop(cds);
    let pipeline_s = median_secs(3, || netprofiler::pipeline::run(ds, acfg));
    // The analyses that still scan the row records.
    let row_scans_s = median_secs(3, || {
        for cat in ClientCategory::ALL {
            black_box(dns_analysis::dns_breakdown(ds, cat));
        }
        black_box(dns_analysis::domain_concentration(ds, |_| true));
        black_box(dns_analysis::dig_agreement(ds));
        black_box(tcp_analysis::figure3(ds));
        black_box(tcp_analysis::syn_retx_histogram(ds));
        black_box(loss_corr::loss_failure_correlation(ds, 30));
        black_box(bgp_corr::client_timeseries(ds, ClientId(0)));
        timing::timing_by_category(ds)
    });
    vec![
        ("columnar.from_dataset_s".into(), from_dataset_s, "s"),
        (
            "columnar.bytes_per_txn".into(),
            memory.bytes_per_transaction(),
            "B",
        ),
        (
            "columnar.row_bytes_per_txn".into(),
            memory.row_bytes_per_transaction(),
            "B",
        ),
        ("core.permanent_s".into(), permanent_s, "s"),
        ("core.grids_s".into(), grids_s, "s"),
        ("core.pipeline_s".into(), pipeline_s, "s"),
        ("core.row_scans_s".into(), row_scans_s, "s"),
    ]
}

/// The workload's TCP outcome counts, from the traced run.
struct TcpMix {
    healthy: u64,
    no_connection: u64,
    no_response: u64,
    partial_response: u64,
}

struct Resolve {
    hit_us: f64,
    miss_us: f64,
    rounds: usize,
}

/// The parts of the workload's world the simulator replays read: the
/// 80-site zone tree and host names built as the runner builds them, and
/// the origins of its ground truth.
struct World {
    sites: Vec<SiteSpec>,
    tree: ZoneTree,
    hosts: Vec<DomainName>,
    origins: HashMap<String, Origin>,
    seed: u64,
}

impl World {
    fn build(config: &ExperimentConfig, origins: HashMap<String, Origin>) -> World {
        let sites = build_sites();
        let (zone_hosts, hosts) = path::zone_hosts(&sites);
        World {
            tree: ZoneTree::build_for_hosts(&zone_hosts),
            sites,
            hosts,
            origins,
            seed: config.seed,
        }
    }

    fn rng(&self, stream: &str) -> SimRng {
        SimRng::new(self.seed).fork_str(stream)
    }

    /// µs per DNS message round trip (encode + decode): the stub's query
    /// and every authoritative response along each site's delegation chain.
    fn dnswire_roundtrip(&self) -> (f64, usize) {
        let mut messages = Vec::new();
        for (i, host) in self.hosts.iter().enumerate() {
            messages.push(Message::query(i as u16, host.clone(), RecordType::A));
            for zone in self.tree.delegation_chain(host) {
                let q = Message::iterative_query(i as u16, host.clone(), RecordType::A);
                messages.push(authoritative_answer(zone, &self.tree, &q).0);
            }
        }
        replay(|| {
            for m in &messages {
                let bytes = m.encode().expect("simulator messages encode");
                black_box(Message::decode(&bytes).expect("own bytes decode"));
            }
            messages.len() as u64
        })
    }

    /// µs per HTTP exchange through the text codec: request encode + parse
    /// and response head encode + parse, for every site's origin answer.
    fn http_roundtrip(&self) -> (f64, usize) {
        let mut rng = self.rng("perfbench-http");
        let exchanges: Vec<(HttpRequest, HttpResponse)> = self
            .sites
            .iter()
            .filter_map(|s| {
                let origin = self.origins.get(s.hostname)?;
                let request = HttpRequest::get(s.hostname, "/", false);
                let response = origin.respond(s.hostname, &request, &mut rng).response;
                Some((request, response))
            })
            .collect();
        replay(|| {
            for (request, response) in &exchanges {
                black_box(HttpRequest::decode(&request.encode()).expect("own request parses"));
                black_box(
                    HttpResponse::decode_head(&response.encode_head()).expect("own head parses"),
                );
            }
            exchanges.len() as u64
        })
    }

    /// µs per `StubResolver::resolve_into` on an LDNS cache hit and on a
    /// miss (full delegation walk), with the workload's wire fidelity.
    fn resolve(&self, config: &ExperimentConfig, violations: &mut Vec<String>) -> Resolve {
        let resolver = StubResolver::new(
            &self.tree,
            ResolverConfig {
                wire_fidelity: config.wire_fidelity,
                ..ResolverConfig::default()
            },
        );
        let mut rng = self.rng("perfbench-dns");
        let mut addrs = Vec::new();
        let t = SimTime::ZERO;
        let mut cached = 0u64;
        let (miss_us, miss_rounds) = replay(|| {
            for host in &self.hosts {
                let mut cache = LdnsCache::new();
                let s = resolver.resolve_into(host, &NoFaults, t, &mut rng, &mut cache, &mut addrs);
                cached += u64::from(s.from_cache);
            }
            self.hosts.len() as u64
        });
        let mut cache = LdnsCache::new();
        for host in &self.hosts {
            resolver.resolve_into(host, &NoFaults, t, &mut rng, &mut cache, &mut addrs);
        }
        let mut missed = 0u64;
        let (hit_us, hit_rounds) = replay(|| {
            for host in &self.hosts {
                let s = resolver.resolve_into(host, &NoFaults, t, &mut rng, &mut cache, &mut addrs);
                missed += u64::from(!s.from_cache);
            }
            self.hosts.len() as u64
        });
        if cached + missed > 0 {
            violations.push(format!(
                "resolver replay: {cached} cold lookups hit the cache, {missed} warm ones missed"
            ));
        }
        Resolve {
            hit_us,
            miss_us,
            rounds: miss_rounds + hit_rounds,
        }
    }

    /// µs per `simulate_connection_into`, over the workload's mix of TCP
    /// outcomes and site sizes, capturing packets for the share of clients
    /// that capture.
    fn connect(&self, config: &ExperimentConfig, mix: &TcpMix) -> (f64, usize) {
        const CALLS: u64 = 4096;
        let total =
            (mix.healthy + mix.no_connection + mix.no_response + mix.partial_response).max(1);
        let mut behaviors = Vec::new();
        for (count, behavior) in [
            (mix.healthy, ServerBehavior::Healthy),
            (mix.no_connection, ServerBehavior::Unreachable),
            (mix.no_response, ServerBehavior::AcceptNoResponse),
            (mix.partial_response, ServerBehavior::StallAfter(1200)),
        ] {
            let n = (count * CALLS).div_ceil(total);
            behaviors.extend(std::iter::repeat_n(behavior, n as usize));
        }
        let mut rng = self.rng("perfbench-tcp");
        rng.shuffle(&mut behaviors);
        let fleet = build_fleet();
        let capturing = fleet
            .clients
            .iter()
            .filter(|c| {
                matches!(
                    c.category,
                    ClientCategory::PlanetLab | ClientCategory::Dialup
                )
            })
            .count();
        let direct = fleet.clients.iter().filter(|c| c.proxy.is_none()).count();
        let capture_share = if config.record_traces {
            capturing as f64 / direct as f64
        } else {
            0.0
        };
        let captured = (capture_share * behaviors.len() as f64).round() as usize;
        let tcp = TcpConfig::default();
        let path = PathQuality::default();
        let mut trace = Trace::new();
        replay(|| {
            for (i, behavior) in behaviors.iter().enumerate() {
                let site = &self.sites[i % self.sites.len()];
                // The behaviours are shuffled, so the first share captures.
                let capture = i < captured;
                black_box(simulate_connection_into(
                    &tcp,
                    *behavior,
                    &path,
                    site.index_bytes + 500,
                    SimTime::ZERO,
                    &mut rng,
                    capture.then_some(&mut trace),
                ));
            }
            behaviors.len() as u64
        })
    }

    /// µs per `ClientSession::run_transaction` against a healthy
    /// environment serving each site's own origin, with the workload's
    /// wire fidelity and capture settings, one access per site per hour.
    fn transactions(&self, config: &ExperimentConfig) -> (f64, usize) {
        let envs: Vec<Option<HealthyEnv>> = self
            .sites
            .iter()
            .map(|s| self.origins.get(s.hostname).cloned().map(HealthyEnv::new))
            .collect();
        let mut wget = WgetConfig {
            record_traces: config.record_traces,
            record_provenance: config.record_provenance,
            forensics: config.forensics.is_some(),
            ..WgetConfig::default()
        };
        wget.resolver.wire_fidelity = config.wire_fidelity;
        wget.http_wire_fidelity = config.wire_fidelity;
        let mut session = ClientSession::new(&self.tree, wget, self.rng("perfbench-session"));
        let mut hour = 0u64;
        replay(|| {
            let mut calls = 0;
            for (k, (host, env)) in self.hosts.iter().zip(&envs).enumerate() {
                let Some(env) = env else { continue };
                let t = SimTime::from_micros((hour * 3600 + k as u64 * 40) * 1_000_000);
                let obs = session.run_transaction(env, host, t);
                session.recycle(black_box(obs));
                calls += 1;
            }
            hour += 1;
            calls
        })
    }
}
