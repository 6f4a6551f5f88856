//! Cross-crate consistency: the substrates agree with each other when
//! composed, independent of the workload calibration.

use dnssim::{LdnsCache, NoFaults, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use model::{SimDuration, SimTime};
use netsim::SimRng;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use tcpsim::{
    classify_trace, count_retransmissions, simulate_connection, PathQuality, ServerBehavior,
    TcpConfig, TraceVerdict,
};

fn hosts() -> Vec<(DomainName, Vec<Ipv4Addr>)> {
    (0..20)
        .map(|i| {
            let name: DomainName = format!("www.host{i:02}.example.com").parse().unwrap();
            let addrs = (0..=(i % 3))
                .map(|j| Ipv4Addr::new(203, 0, i as u8, 80 + j as u8))
                .collect();
            (name, addrs)
        })
        .collect()
}

#[test]
fn resolver_answers_match_zone_truth_for_every_host() {
    let hosts = hosts();
    let tree = ZoneTree::build_for_hosts(&hosts);
    let resolver = StubResolver::new(&tree, ResolverConfig::default());
    let mut rng = SimRng::new(9);
    let mut cache = LdnsCache::new();
    for (name, addrs) in &hosts {
        let res = resolver.resolve(name, &NoFaults, SimTime::from_hours(1), &mut rng, &mut cache);
        let mut got = res.result.expect("healthy resolution");
        got.sort();
        let mut want = addrs.clone();
        want.sort();
        assert_eq!(got, want, "addresses for {name}");
    }
}

#[test]
fn dig_and_resolver_agree_on_healthy_world() {
    let hosts = hosts();
    let tree = ZoneTree::build_for_hosts(&hosts);
    let resolver = StubResolver::new(&tree, ResolverConfig::default());
    let cfg = ResolverConfig::default();
    let mut rng = SimRng::new(10);
    for (name, _) in &hosts {
        let mut cache = LdnsCache::new();
        let wget = resolver.resolve(name, &NoFaults, SimTime::from_hours(2), &mut rng, &mut cache);
        let (dig, _) =
            dnssim::dig_iterative(&tree, name, &NoFaults, SimTime::from_hours(2), &mut rng, &cfg);
        assert_eq!(wget.result.is_ok(), dig.is_resolved(), "disagreement on {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any loss rate and behavior, the trace post-processor agrees
    /// with ground truth, and durations respect the configured bounds.
    #[test]
    fn tcp_trace_always_matches_ground_truth(
        seed in 0u64..10_000,
        loss in 0.0f64..0.20,
        behavior_idx in 0usize..5,
        bytes in 500u64..150_000,
    ) {
        let behavior = [
            ServerBehavior::Healthy,
            ServerBehavior::Unreachable,
            ServerBehavior::Refusing,
            ServerBehavior::AcceptNoResponse,
            ServerBehavior::StallAfter(bytes / 2),
        ][behavior_idx];
        let cfg = TcpConfig::default();
        let path = PathQuality { loss, rtt: SimDuration::from_millis(70) };
        let r = simulate_connection(
            &cfg,
            behavior,
            &path,
            bytes,
            SimTime::from_hours(1),
            &mut SimRng::new(seed),
            true,
        );
        let trace = r.trace.as_ref().unwrap();
        let verdict = classify_trace(trace);
        match r.outcome {
            Ok(()) => prop_assert_eq!(verdict, TraceVerdict::Complete),
            Err(kind) => prop_assert_eq!(verdict.failure_kind(), Some(kind)),
        }
        // Trace-visible retransmissions never exceed sender-side truth.
        let (syn, data) = count_retransmissions(trace);
        prop_assert_eq!(syn, u32::from(r.syn_retransmissions));
        prop_assert!(data <= r.retransmissions_sent);
        // A no-connection verdict can't deliver bytes.
        if verdict == TraceVerdict::NoConnection {
            prop_assert_eq!(r.bytes_delivered, 0);
        }
        // Durations: SYN backoff chain bounds the handshake phase; the
        // idle rule bounds the stalled phase.
        prop_assert!(r.duration <= SimDuration::from_secs(60 + 45 + 120));
    }

    /// DNS wire fidelity only checks the codec: the whole resolution —
    /// addresses in order, elapsed time, cache use — and the RNG draws it
    /// consumes are identical with the codec on or off, background query
    /// loss included.
    #[test]
    fn wire_fidelity_never_changes_outcomes(seed in 0u64..2_000, host_idx in 0usize..20) {
        let hosts = hosts();
        let tree = ZoneTree::build_for_hosts(&hosts);
        let on_cfg = ResolverConfig::default();
        let mut off_cfg = on_cfg;
        off_cfg.wire_fidelity = false;
        let on = StubResolver::new(&tree, on_cfg);
        let off = StubResolver::new(&tree, off_cfg);
        let name = &hosts[host_idx].0;
        let t = SimTime::from_hours(3);
        let (mut rng_on, mut rng_off) = (SimRng::new(seed), SimRng::new(seed));
        let a = on.resolve(name, &NoFaults, t, &mut rng_on, &mut LdnsCache::new());
        let b = off.resolve(name, &NoFaults, t, &mut rng_off, &mut LdnsCache::new());
        prop_assert_eq!(a, b);
        prop_assert_eq!(rng_on.next_u64(), rng_off.next_u64());
    }
}

#[test]
fn bgp_cleaning_is_stable_on_clean_data() {
    use bgpsim::{aggregate, clean, generate, BgpScenario};
    let sc = BgpScenario::quiet(30, 96);
    let raw = generate(&sc, &mut SimRng::new(3));
    let series = aggregate(&raw.updates, 30, 96);
    let (once, r1) = clean(&series, &raw.hourly_unique_prefixes);
    assert!(r1.reset_hours.is_empty());
    // Cleaning clean data twice changes nothing.
    let (twice, _) = clean(&once, &raw.hourly_unique_prefixes);
    for p in 0..30u32 {
        for h in 0..96u32 {
            assert_eq!(
                once.get(model::PrefixId(p), h),
                twice.get(model::PrefixId(p), h)
            );
        }
    }
}
