//! Simulated DNS resolution.
//!
//! Models the full resolution path a web client exercises (Section 2.1 of
//! the paper): a stub resolver on the client queries its **local DNS server
//! (LDNS)**, which resolves iteratively through a simulated zone hierarchy
//! (root → TLD → authoritative). The LDNS's recursion and the [`dig`]
//! walker share one delegation walk and one rule for reading the answer
//! ([`Zone::answer`], which follows in-zone CNAME chains).
//!
//! With wire fidelity on, every query and response is also round-tripped
//! through the `dnswire` RFC 1035 codec and checked against the direct
//! answer. The codec only checks: it never changes a result or draws from
//! the RNG, so a run with it off simulates the same world, bit for bit.
//!
//! Fault injection enters through the [`DnsFaults`] trait: the experiment's
//! ground-truth fault model answers "is the client's access link up?", "is
//! the LDNS up?", "are the authoritative servers for zone Z reachable?", and
//! "is zone Z misconfigured (SERVFAIL/NXDOMAIN)?" at any instant. The
//! resolver turns those into exactly the observable failure classes the
//! paper's taxonomy uses:
//!
//! * **LDNS timeout** — link or LDNS down: the stub's retries go unanswered;
//! * **non-LDNS timeout** — LDNS responsive but an authoritative server
//!   below it unreachable;
//! * **error response** — NXDOMAIN/SERVFAIL from broken authoritative
//!   configuration.
//!
//! The iterative [`dig`] walker reproduces the paper's validation step 3
//! ("use iterative dig to traverse the DNS hierarchy" after every access).

pub mod dig;
pub mod faults;
pub mod resolver;
pub mod server;
pub mod zones;

pub use dig::{dig_iterative, DigResult};
pub use faults::{DnsFaults, NoFaults};
pub use resolver::{
    LatencyModel, LdnsCache, Resolution, ResolutionStatus, ResolverConfig, StubResolver,
};
pub use server::{authoritative_answer, AnswerKind};
pub use zones::{Zone, ZoneTree};
