//! The client-side resolution path: stub resolver → LDNS → iterative walk.
//!
//! The resolution is computed *hierarchically*: faults are evaluated at the
//! transaction instant (episodes last hours; lookups last seconds) and the
//! elapsed time is accumulated analytically from per-hop latency samples and
//! timeout schedules. The LDNS's recursion and the iterative `dig` share one
//! delegation walk and read the authoritative answer through one rule,
//! [`Zone::answer`].
//!
//! With `wire_fidelity` on, the stub's query and each hop's reply are also
//! real RFC 1035 messages, round-tripped through the `dnswire` codec and
//! checked against the direct answer. Each distinct message round-trips once per session
//! (per [`StubResolver`]), and repeats are identical by construction: a
//! message is a pure function of its qname and hop over a frozen zone tree.
//! The check never changes a result: message IDs are a function of the
//! hop, not RNG draws, so a run with the codec on is bit-identical to the
//! same run with it off.

use crate::faults::DnsFaults;
use crate::server::authoritative_answer;
use crate::zones::{Zone, ZoneTree};
use dnswire::{DomainName, Message, Rcode, RecordType};
use model::{DnsErrorCode, DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Latency sampling for resolution hops.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Mean RTT between client and its LDNS (last mile).
    pub ldns_rtt: SimDuration,
    /// Mean RTT between the LDNS and authoritative servers (wide area).
    pub hop_rtt: SimDuration,
    /// Multiplicative jitter: each sample is `mean * exp(N(0, sigma))`.
    pub jitter_sigma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            ldns_rtt: SimDuration::from_millis(5),
            hop_rtt: SimDuration::from_millis(60),
            jitter_sigma: 0.3,
        }
    }
}

impl LatencyModel {
    /// One latency sample around `mean`.
    pub fn sample(&self, mean: SimDuration, rng: &mut SimRng) -> SimDuration {
        let factor = rng.normal(0.0, self.jitter_sigma).exp();
        mean * factor
    }
}

/// Timeout/retry policy and codec switches.
#[derive(Clone, Copy, Debug)]
pub struct ResolverConfig {
    /// Per-attempt stub → LDNS timeout.
    pub stub_timeout: SimDuration,
    /// Stub attempts before declaring LDNS timeout.
    pub stub_attempts: u32,
    /// Per-attempt LDNS → authoritative timeout.
    pub auth_timeout: SimDuration,
    /// LDNS attempts per authoritative server set.
    pub auth_attempts: u32,
    /// Probability an individual healthy query/response exchange is lost
    /// (background UDP loss; retries usually hide it).
    pub query_loss_prob: f64,
    /// Round-trip messages through the RFC 1035 codec and check them: each
    /// distinct message round-trips once per session, and repeats are
    /// identical by construction (results are identical on or off).
    pub wire_fidelity: bool,
    pub latency: LatencyModel,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            stub_timeout: SimDuration::from_secs(5),
            stub_attempts: 3,
            auth_timeout: SimDuration::from_secs(3),
            auth_attempts: 2,
            query_loss_prob: 0.001,
            wire_fidelity: true,
            latency: LatencyModel::default(),
        }
    }
}

/// The outcome of one resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// Addresses on success; the observable failure class otherwise.
    pub result: Result<Vec<Ipv4Addr>, DnsFailureKind>,
    /// Time the lookup took (including timeout time on failure).
    pub elapsed: SimDuration,
    /// Whether the answer came from the LDNS cache.
    pub from_cache: bool,
}

impl Resolution {
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }
}

/// The outcome of one resolution when the addresses go into a caller-owned
/// buffer ([`StubResolver::resolve_into`]): same fields as [`Resolution`]
/// minus the address allocation.
#[derive(Clone, Copy, Debug)]
pub struct ResolutionStatus {
    /// `Ok` iff addresses were written to the caller's buffer.
    pub result: Result<(), DnsFailureKind>,
    /// Time the lookup took (including timeout time on failure).
    pub elapsed: SimDuration,
    /// Whether the answer came from the LDNS cache.
    pub from_cache: bool,
}

/// The LDNS's answer cache (the client's own cache is flushed before every
/// access, per the measurement procedure, so only the LDNS cache matters).
#[derive(Clone, Debug, Default)]
pub struct LdnsCache {
    entries: HashMap<DomainName, (Vec<Ipv4Addr>, SimTime)>,
}

impl LdnsCache {
    pub fn new() -> Self {
        LdnsCache::default()
    }

    /// Cached addresses for `name` if the entry is still live at `t`.
    pub fn get(&self, name: &DomainName, t: SimTime) -> Option<&[Ipv4Addr]> {
        self.entries
            .get(name)
            .filter(|(_, expiry)| *expiry > t)
            .map(|(addrs, _)| addrs.as_slice())
    }

    pub fn put(&mut self, name: DomainName, addrs: Vec<Ipv4Addr>, expiry: SimTime) {
        self.entries.insert(name, (addrs, expiry));
    }

    /// Drop everything (an LDNS restart).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Round-robin rotation of an address list, as an LDNS rotates RRset
/// order between queries. The client (and a non-failing-over proxy) takes
/// the first address, so rotation spreads load across replicas.
fn rotate_rr(addrs: &mut [Ipv4Addr], rng: &mut SimRng) {
    if addrs.len() > 1 {
        let k = rng.below(addrs.len() as u64) as usize;
        addrs.rotate_left(k);
    }
}

/// The stub resolver: the entry point `webclient` uses for every access.
pub struct StubResolver<'t> {
    tree: &'t ZoneTree,
    config: ResolverConfig,
    /// One RNG draw per message exchanged; see [`Self::drawing_per_message`].
    message_draws: bool,
    /// Wire fidelity's memo: per qname, which message slots have been
    /// round-tripped; see [`Self::check_once`].
    checked: RefCell<HashMap<DomainName, Vec<bool>>>,
    /// Codec round trips paid so far.
    round_trips: Cell<u64>,
}

impl<'t> StubResolver<'t> {
    pub fn new(tree: &'t ZoneTree, config: ResolverConfig) -> Self {
        StubResolver {
            tree,
            config,
            message_draws: false,
            checked: RefCell::default(),
            round_trips: Cell::new(0),
        }
    }

    /// [`Self::new`] for a resolver that takes one RNG draw per message it
    /// exchanges: the stub's query and every reached hop's reply. Nothing
    /// reads the draws. The caching proxy resolves this way; dropping its
    /// draws would shift every later draw of the proxy's stream, and with it
    /// every recorded world (determinism goldens, pinned sidecar digests,
    /// benchmark reference figures).
    pub fn drawing_per_message(tree: &'t ZoneTree, config: ResolverConfig) -> Self {
        StubResolver {
            message_draws: true,
            ..StubResolver::new(tree, config)
        }
    }

    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Messages this resolver has round-tripped through the codec: one per
    /// distinct message slot it has sent, however often it sent it.
    pub fn wire_round_trips(&self) -> u64 {
        self.round_trips.get()
    }

    /// Run wire fidelity's `check` of message `slot` for `qname` (slot 0 is
    /// the stub's query, slot `i + 1` walk hop `i`) unless this resolver
    /// already ran it. Skipping a repeat loses nothing: the resolver borrows
    /// its `&'t ZoneTree`, so the tree is frozen while the memo lives, and
    /// the query ID, the qname and [`authoritative_answer`] are pure
    /// functions of `(qname, slot)` over it. A repeat would encode the same
    /// bytes, and the codec is a pure function. Only slots a lookup reaches
    /// are marked, so a walk cut short leaves its deeper hops unchecked.
    fn check_once(&self, qname: &DomainName, slot: usize, check: impl FnOnce()) {
        {
            let mut checked = self.checked.borrow_mut();
            let seen = match checked.get_mut(qname) {
                Some(seen) => seen,
                None => checked.entry(qname.clone()).or_default(),
            };
            if seen.len() <= slot {
                seen.resize(slot + 1, false);
            }
            if std::mem::replace(&mut seen[slot], true) {
                return;
            }
        }
        check();
        self.round_trips.set(self.round_trips.get() + 1);
        telemetry::counter!("dns.wire_round_trips", 1);
    }

    /// Resolve `qname` at instant `t` under `faults`, using (and updating)
    /// the client's LDNS cache.
    pub fn resolve<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
    ) -> Resolution {
        let mut addrs = Vec::new();
        let status = self.resolve_into(qname, faults, t, rng, cache, &mut addrs);
        Resolution {
            result: status.result.map(|()| addrs),
            elapsed: status.elapsed,
            from_cache: status.from_cache,
        }
    }

    /// [`Self::resolve`] with a caller-owned address buffer, so the hot path
    /// can reuse one allocation across lookups. `out` is cleared and, on
    /// success, left holding the (rotated) RRset. The RNG draw sequence is
    /// identical to [`Self::resolve`].
    pub fn resolve_into<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
        out: &mut Vec<Ipv4Addr>,
    ) -> ResolutionStatus {
        out.clear();
        let res = self.resolve_inner(qname, faults, t, rng, cache, out);
        // Wrong-answer faults substitute the delivered RRset *after* the
        // genuine resolution (and caching) ran: no RNG draw is added or
        // removed, and the cache never holds the decoy.
        if res.result.is_ok() {
            if let Some(decoy) = faults.wrong_answer(qname, t) {
                out.clear();
                out.push(decoy);
            }
        }
        if telemetry::enabled() {
            telemetry::counter!("dns.lookups", 1);
            telemetry::histogram!("dns.elapsed_us", res.elapsed.as_micros());
            if res.from_cache {
                telemetry::counter!("dns.cache_hits", 1);
            }
            if let Err(kind) = &res.result {
                static FAILURES: telemetry::CounterVec<3> = telemetry::CounterVec::new(
                    "dns.failures",
                    ["ldns_timeout", "non_ldns_timeout", "error_response"],
                );
                FAILURES.add(
                    match kind {
                        DnsFailureKind::LdnsTimeout => 0,
                        DnsFailureKind::NonLdnsTimeout => 1,
                        DnsFailureKind::ErrorResponse(_) => 2,
                    },
                    1,
                );
            }
        }
        res
    }

    fn resolve_inner<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        cache: &mut LdnsCache,
        out: &mut Vec<Ipv4Addr>,
    ) -> ResolutionStatus {
        let cfg = &self.config;
        let mut elapsed = SimDuration::ZERO;

        // --- Stub → LDNS ------------------------------------------------
        let ldns_reachable = faults.client_link_up(t) && faults.ldns_up(t);
        let mut contacted = false;
        for _attempt in 0..cfg.stub_attempts {
            if ldns_reachable && !rng.chance(cfg.query_loss_prob) {
                elapsed += cfg.latency.sample(cfg.latency.ldns_rtt, rng);
                contacted = true;
                break;
            }
            elapsed += cfg.stub_timeout;
        }
        if !contacted {
            return ResolutionStatus {
                result: Err(DnsFailureKind::LdnsTimeout),
                elapsed,
                from_cache: false,
            };
        }
        if self.message_draws {
            rng.next_u64();
        }
        if cfg.wire_fidelity {
            // The stub's recursive query to the LDNS.
            self.check_once(qname, 0, || {
                round_trip(&Message::query(0, qname.clone(), RecordType::A));
            });
        }

        // --- LDNS cache --------------------------------------------------
        if let Some(addrs) = cache.get(qname, t) {
            out.extend_from_slice(addrs);
            rotate_rr(out, rng);
            return ResolutionStatus {
                result: Ok(()),
                elapsed,
                from_cache: true,
            };
        }

        // --- Iterative walk (by the LDNS) -------------------------------
        let result = match self.walk(qname, faults, t, rng, &mut elapsed) {
            Ok((Ok(addrs), ttl)) => {
                out.extend_from_slice(&addrs);
                cache.put(
                    qname.clone(),
                    addrs,
                    t + SimDuration::from_secs(u64::from(ttl)),
                );
                rotate_rr(out, rng);
                Ok(())
            }
            Ok((Err(code), _)) => Err(DnsFailureKind::ErrorResponse(code)),
            Err(kind) => Err(kind),
        };
        ResolutionStatus {
            result,
            elapsed,
            from_cache: false,
        }
    }

    /// The delegation walk both the LDNS's recursion and
    /// [`crate::dig_iterative`] make: every zone from the root down to the
    /// authoritative one gets `auth_attempts` tries, accumulating latency
    /// into `elapsed`. `Err` is a failure before any answer (a zone that
    /// never answers, or a misconfigured authoritative zone's error); `Ok`
    /// is the authoritative server's [`Zone::answer`] and its TTL. Wire
    /// fidelity only adds [`check_reply`] at each reached hop, once per
    /// resolver.
    pub(crate) fn walk<F: DnsFaults + ?Sized>(
        &self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        elapsed: &mut SimDuration,
    ) -> Result<(Result<Vec<Ipv4Addr>, DnsErrorCode>, u32), DnsFailureKind> {
        let cfg = &self.config;
        let chain = self.tree.delegation_chain(qname);
        let Some(auth) = chain.last() else {
            return Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail));
        };
        for (hop, zone) in chain.iter().enumerate() {
            let is_auth = hop + 1 == chain.len();
            // Zone misconfiguration produces an error *response* (servers
            // are up but answer with an error) — only meaningful at the
            // authoritative zone.
            if is_auth {
                if let Some(code) = faults.zone_error(&zone.apex, t) {
                    *elapsed += cfg.latency.sample(cfg.latency.hop_rtt, rng);
                    return Err(DnsFailureKind::ErrorResponse(code));
                }
            }
            // Reachability of this zone's servers.
            let up = faults.auth_up(&zone.apex, t);
            let mut reached = false;
            for _ in 0..cfg.auth_attempts {
                if up && !rng.chance(cfg.query_loss_prob) {
                    *elapsed += cfg.latency.sample(cfg.latency.hop_rtt, rng);
                    reached = true;
                    break;
                }
                *elapsed += cfg.auth_timeout;
            }
            if !reached {
                return Err(DnsFailureKind::NonLdnsTimeout);
            }
            if self.message_draws {
                rng.next_u64();
            }
            if cfg.wire_fidelity {
                self.check_once(qname, hop + 1, || {
                    check_reply(self.tree, zone, qname, hop, is_auth)
                });
            }
        }
        Ok((auth.answer(qname), auth.ttl))
    }
}

/// Wire fidelity at one hop: round-trip `zone`'s reply through the codec
/// and check that, from the authoritative zone, it carries the direct
/// answer. Message IDs are the hop's index (the stub's query is 0, walk hop
/// `i` is `i + 1`), so the check never draws from the RNG.
fn check_reply(tree: &ZoneTree, zone: &Zone, qname: &DomainName, hop: usize, is_auth: bool) {
    let query = Message::iterative_query(hop as u16 + 1, qname.clone(), RecordType::A);
    let (reply, _) = authoritative_answer(zone, tree, &query);
    let decoded = round_trip(&reply);
    if is_auth {
        let direct = zone.answer(qname);
        assert_eq!(
            decoded.header.rcode == Rcode::NxDomain,
            direct == Err(DnsErrorCode::NxDomain),
            "decoded rcode for {qname} disagrees with the zone"
        );
        assert_eq!(
            decoded.resolve_a_chain(qname),
            direct.unwrap_or_default(),
            "decoded answer for {qname} disagrees with the zone"
        );
    }
}

/// Encode `message` and decode the bytes again; the codec must give back
/// the message it was handed.
fn round_trip(message: &Message) -> Message {
    let bytes = message.encode().expect("simulator messages encode");
    let decoded = Message::decode(&bytes).expect("own bytes decode");
    assert_eq!(&decoded, message, "DNS codec round trip changed a message");
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;
    use crate::zones::ZoneTree;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (
                name("www.iitb.ac.in"),
                vec![Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 2, 0, 2)],
            ),
        ])
    }

    struct LinkDown;
    impl DnsFaults for LinkDown {
        fn client_link_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct LdnsDown;
    impl DnsFaults for LdnsDown {
        fn ldns_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct AuthDown(DomainName);
    impl DnsFaults for AuthDown {
        fn auth_up(&self, zone: &DomainName, _t: SimTime) -> bool {
            *zone != self.0
        }
    }

    struct ZoneBroken(DomainName, DnsErrorCode);
    impl DnsFaults for ZoneBroken {
        fn zone_error(&self, zone: &DomainName, _t: SimTime) -> Option<DnsErrorCode> {
            (*zone == self.0).then_some(self.1)
        }
    }

    struct WrongAnswer(DomainName, Ipv4Addr);
    impl DnsFaults for WrongAnswer {
        fn wrong_answer(&self, qname: &DomainName, _t: SimTime) -> Option<Ipv4Addr> {
            (*qname == self.0).then_some(self.1)
        }
    }

    fn resolve_with<F: DnsFaults>(faults: &F, host: &str) -> Resolution {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(1);
        let mut cache = LdnsCache::new();
        r.resolve(&name(host), faults, SimTime::from_hours(1), &mut rng, &mut cache)
    }

    #[test]
    fn healthy_resolution_succeeds() {
        let res = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(res.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
        assert!(!res.from_cache);
        assert!(res.elapsed > SimDuration::ZERO);
        assert!(res.elapsed < SimDuration::from_secs(2), "healthy lookup fast");
    }

    #[test]
    fn multi_address_answer() {
        let res = resolve_with(&NoFaults, "www.iitb.ac.in");
        assert_eq!(res.result.unwrap().len(), 2);
    }

    #[test]
    fn link_down_is_ldns_timeout() {
        let res = resolve_with(&LinkDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
        // 3 attempts × 5 s
        assert_eq!(res.elapsed, SimDuration::from_secs(15));
    }

    #[test]
    fn ldns_down_is_ldns_timeout() {
        let res = resolve_with(&LdnsDown, "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::LdnsTimeout);
    }

    #[test]
    fn auth_down_is_non_ldns_timeout() {
        let res = resolve_with(&AuthDown(name("example.com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
        assert!(res.elapsed >= SimDuration::from_secs(6), "timeout time accrued");
    }

    #[test]
    fn tld_down_is_non_ldns_timeout() {
        let res = resolve_with(&AuthDown(name("com")), "www.example.com");
        assert_eq!(res.result.unwrap_err(), DnsFailureKind::NonLdnsTimeout);
    }

    #[test]
    fn broken_zone_returns_error_response() {
        let res = resolve_with(
            &ZoneBroken(name("example.com"), DnsErrorCode::ServFail),
            "www.example.com",
        );
        assert_eq!(
            res.result.unwrap_err(),
            DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)
        );
    }

    #[test]
    fn wrong_answer_substitutes_decoy_without_poisoning_cache() {
        let decoy = Ipv4Addr::new(192, 0, 2, 10);
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let q = name("www.example.com");
        let t0 = SimTime::from_hours(1);
        let faulted = r.resolve(&q, &WrongAnswer(q.clone(), decoy), t0, &mut rng, &mut cache);
        assert_eq!(faulted.result.unwrap(), vec![decoy]);
        // The cache kept the genuine RRset: once the fault window ends the
        // next (cached) lookup is healthy again.
        let healed = r.resolve(&q, &NoFaults, t0 + SimDuration::from_secs(60), &mut rng, &mut cache);
        assert!(healed.from_cache);
        assert_eq!(healed.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let res = resolve_with(&NoFaults, "nosuch.example.com");
        assert_eq!(
            res.result.unwrap_err(),
            DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)
        );
    }

    #[test]
    fn cache_hit_short_circuits() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(2);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        let first = r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        assert!(!first.from_cache);
        let second = r.resolve(
            &name("www.example.com"),
            &NoFaults,
            t0 + SimDuration::from_secs(60),
            &mut rng,
            &mut cache,
        );
        assert!(second.from_cache);
        assert_eq!(second.result.unwrap(), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn cache_expires_by_ttl() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(3);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        // Auth zone TTL is 7200 s; query well past expiry.
        let later = t0 + SimDuration::from_secs(8000);
        let res = r.resolve(&name("www.example.com"), &NoFaults, later, &mut rng, &mut cache);
        assert!(!res.from_cache);
    }

    #[test]
    fn cached_answer_masks_auth_outage() {
        // The proxy/LDNS cache effect from the paper: a cached name keeps
        // resolving while the authoritative servers are down.
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(4);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        r.resolve(&name("www.example.com"), &NoFaults, t0, &mut rng, &mut cache);
        let res = r.resolve(
            &name("www.example.com"),
            &AuthDown(name("example.com")),
            t0 + SimDuration::from_secs(60),
            &mut rng,
            &mut cache,
        );
        assert!(res.from_cache);
        assert!(res.result.is_ok());
    }

    #[test]
    fn wire_fidelity_off_matches_on() {
        let t = tree();
        let mut cfg = ResolverConfig::default();
        let on = StubResolver::new(&t, cfg);
        cfg.wire_fidelity = false;
        let off = StubResolver::new(&t, cfg);
        for host in ["www.example.com", "www.iitb.ac.in", "nosuch.example.com"] {
            for seed in 0..64 {
                let (mut rng_on, mut rng_off) = (SimRng::new(seed), SimRng::new(seed));
                let (mut cache_on, mut cache_off) = (LdnsCache::new(), LdnsCache::new());
                // A miss, then (for a resolvable name) a cache hit.
                let t0 = SimTime::from_hours(2);
                for at in [t0, t0 + SimDuration::from_secs(60)] {
                    let a = on.resolve(&name(host), &NoFaults, at, &mut rng_on, &mut cache_on);
                    let b = off.resolve(&name(host), &NoFaults, at, &mut rng_off, &mut cache_off);
                    assert_eq!(a, b, "{host} seed {seed}");
                }
                assert_eq!(rng_on.next_u64(), rng_off.next_u64(), "same draws consumed");
            }
        }
    }

    #[test]
    fn warm_resolver_round_trips_each_message_once() {
        let mut t = tree();
        t.zone_mut(&name("example.com"))
            .unwrap()
            .add_cname(name("web.example.com"), name("www.example.com"));
        let cfg = ResolverConfig {
            query_loss_prob: 0.0,
            ..ResolverConfig::default()
        };
        let r = StubResolver::new(&t, cfg);
        let mut rng = SimRng::new(8);
        let mut cache = LdnsCache::new();
        let t0 = SimTime::from_hours(1);
        // The stub's query plus one reply per zone on the delegation chain.
        let messages = |host: &str| 1 + t.delegation_chain(&name(host)).len() as u64;
        let iitb_auth = t.authoritative_zone(&name("www.iitb.ac.in")).unwrap().apex.clone();
        let mut paid = 0;
        let mut lookup = |host: &str, faults: &dyn DnsFaults, at: SimTime| {
            let res = r.resolve(&name(host), faults, at, &mut rng, &mut cache);
            let new = r.wire_round_trips() - paid;
            paid = r.wire_round_trips();
            (res, new)
        };

        let (miss, new) = lookup("www.example.com", &NoFaults, t0);
        assert!(!miss.from_cache);
        assert_eq!(new, messages("www.example.com"), "a miss checks every slot");
        let (hit, new) = lookup("www.example.com", &NoFaults, t0 + SimDuration::from_secs(60));
        assert!(hit.from_cache);
        assert_eq!(new, 0, "the cache hit's query was checked by the miss");
        let (expired, new) = lookup("www.example.com", &NoFaults, t0 + SimDuration::from_secs(8000));
        assert!(!expired.from_cache);
        assert_eq!(new, 0, "the walk after TTL expiry repeats the miss's messages");
        for pass in 0..2 {
            let (nx, new) = lookup("nosuch.example.com", &NoFaults, t0);
            assert_eq!(nx.result, Err(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)));
            let want = if pass == 0 { messages("nosuch.example.com") } else { 0 };
            assert_eq!(new, want, "NXDOMAIN pass {pass}");
        }
        let (alias, new) = lookup("web.example.com", &NoFaults, t0);
        assert_eq!(alias.result, Ok(vec![Ipv4Addr::new(10, 0, 0, 1)]));
        assert_eq!(new, messages("web.example.com"), "an alias is its own qname");
        let (timeout, new) = lookup("www.iitb.ac.in", &LdnsDown, t0);
        assert_eq!(timeout.result, Err(DnsFailureKind::LdnsTimeout));
        assert_eq!(new, 0, "no message reached the LDNS");
        let (partial, new) = lookup("www.iitb.ac.in", &AuthDown(iitb_auth), t0);
        assert_eq!(partial.result, Err(DnsFailureKind::NonLdnsTimeout));
        assert_eq!(new, messages("www.iitb.ac.in") - 1, "every slot but the unreached hop");
        let (full, new) = lookup("www.iitb.ac.in", &NoFaults, t0);
        assert!(full.result.is_ok());
        assert_eq!(new, 1, "only the hop the partial walk never reached");
    }

    #[test]
    fn cname_alias_resolves_on_every_path() {
        let mut t = tree();
        t.zone_mut(&name("example.com"))
            .unwrap()
            .add_cname(name("web.example.com"), name("www.example.com"));
        let alias = name("web.example.com");
        let at = SimTime::from_hours(1);
        let want = vec![Ipv4Addr::new(10, 0, 0, 1)];
        for wire_fidelity in [false, true] {
            let cfg = ResolverConfig {
                wire_fidelity,
                ..ResolverConfig::default()
            };
            let r = StubResolver::new(&t, cfg);
            let mut rng = SimRng::new(6);
            let res = r.resolve(&alias, &NoFaults, at, &mut rng, &mut LdnsCache::new());
            assert_eq!(res.result, Ok(want.clone()), "wire fidelity {wire_fidelity}");
            let (dig, _) = crate::dig_iterative(&t, &alias, &NoFaults, at, &mut rng, &cfg);
            let want_dig = crate::DigResult::Resolved(want.clone());
            assert_eq!(dig, want_dig, "dig, wire fidelity {wire_fidelity}");
        }
    }

    #[test]
    fn resolve_into_matches_resolve() {
        let t = tree();
        let r = StubResolver::new(&t, ResolverConfig::default());
        let t0 = SimTime::from_hours(1);
        let mut buf = vec![Ipv4Addr::new(9, 9, 9, 9)]; // stale content must clear
        for host in ["www.iitb.ac.in", "nosuch.example.com"] {
            // Separate RNG/cache streams, identical seeds: the second
            // iteration exercises the cache-hit rotation path.
            let mut rng_a = SimRng::new(77);
            let mut rng_b = SimRng::new(77);
            let mut cache_a = LdnsCache::new();
            let mut cache_b = LdnsCache::new();
            for pass in 0..2 {
                let owned = r.resolve(&name(host), &NoFaults, t0, &mut rng_a, &mut cache_a);
                let status =
                    r.resolve_into(&name(host), &NoFaults, t0, &mut rng_b, &mut cache_b, &mut buf);
                assert_eq!(status.elapsed, owned.elapsed, "{host} pass {pass}");
                assert_eq!(status.from_cache, owned.from_cache);
                match owned.result {
                    Ok(addrs) => {
                        assert!(status.result.is_ok());
                        assert_eq!(buf, addrs, "{host} pass {pass}");
                    }
                    Err(kind) => {
                        assert_eq!(status.result.unwrap_err(), kind);
                        assert!(buf.is_empty(), "failed lookup leaves buffer empty");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = resolve_with(&NoFaults, "www.example.com");
        let b = resolve_with(&NoFaults, "www.example.com");
        assert_eq!(a, b);
    }

    #[test]
    fn ldns_cache_basics() {
        let mut c = LdnsCache::new();
        assert!(c.is_empty());
        let t0 = SimTime::from_secs(100);
        c.put(name("a.b"), vec![Ipv4Addr::new(1, 1, 1, 1)], t0 + SimDuration::from_secs(10));
        assert_eq!(c.get(&name("a.b"), t0).unwrap().len(), 1);
        assert!(c.get(&name("a.b"), t0 + SimDuration::from_secs(10)).is_none(), "expiry is exclusive");
        c.flush();
        assert!(c.is_empty());
    }
}
