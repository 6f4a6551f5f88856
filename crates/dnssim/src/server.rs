//! Authoritative-server answer construction.
//!
//! Given a zone and a decoded query, produce the wire-correct response an
//! authoritative server would send: an authoritative answer (following
//! in-zone CNAMEs), a referral to a delegated child zone, or NXDOMAIN.

use crate::zones::{Zone, ZoneTree};
use dnswire::{DomainName, Message, RData, Rcode};

/// How the server answered, for the resolver's walk logic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnswerKind {
    /// Authoritative records in the answer section.
    Authoritative,
    /// NS records for a more-specific zone in the authority section.
    Referral,
    /// Authoritative denial.
    NxDomain,
}

/// Build the response `zone`'s server gives to `query` (first question).
///
/// `tree` is consulted to discover delegations below `zone` (a child zone
/// whose apex lies strictly between this zone's apex and the qname).
pub fn authoritative_answer(zone: &Zone, tree: &ZoneTree, query: &Message) -> (Message, AnswerKind) {
    let mut resp = query.response_from_query();
    resp.header.authoritative = true;
    let Some(q) = query.questions.first() else {
        return (resp.with_rcode(Rcode::FormErr), AnswerKind::NxDomain);
    };
    let qname = &q.qname;

    // Delegation check: the deepest zone in the tree that is authoritative
    // for qname. If it is deeper than us, refer to the next zone down our
    // chain.
    if let Some(deeper) = next_delegation(zone, tree, qname) {
        for (ns_name, ns_addr) in &deeper.ns {
            resp.add_authority(deeper.apex.clone(), deeper.ttl, RData::Ns(ns_name.clone()));
            resp.add_additional(ns_name.clone(), deeper.ttl, RData::A(*ns_addr));
        }
        return (resp, AnswerKind::Referral);
    }

    // We are the authority: answer, following in-zone CNAME chains.
    let mut answered = false;
    for (owner, records) in zone.answer_chain(qname) {
        answered = true;
        for r in records {
            resp.add_answer(owner.clone(), zone.ttl, r.clone());
        }
    }

    if answered {
        (resp, AnswerKind::Authoritative)
    } else {
        (resp.with_rcode(Rcode::NxDomain), AnswerKind::NxDomain)
    }
}

/// The next zone on the delegation path from `zone` toward `qname`, if any.
fn next_delegation<'t>(zone: &Zone, tree: &'t ZoneTree, qname: &DomainName) -> Option<&'t Zone> {
    qname
        .hierarchy()
        .iter()
        .filter(|apex| apex.label_count() > zone.apex.label_count())
        .find_map(|apex| tree.zone(apex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RecordType;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (name("www.other.org"), vec![Ipv4Addr::new(10, 9, 0, 1)]),
        ])
    }

    #[test]
    fn root_refers_to_tld() {
        let t = tree();
        let root = t.zone(&DomainName::root()).unwrap();
        let q = Message::iterative_query(1, name("www.example.com"), RecordType::A);
        let (resp, kind) = authoritative_answer(root, &t, &q);
        assert_eq!(kind, AnswerKind::Referral);
        let refs = resp.referrals();
        assert!(!refs.is_empty());
        assert!(!refs[0].1.is_empty(), "referral carries glue");
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn tld_refers_to_auth() {
        let t = tree();
        let com = t.zone(&name("com")).unwrap();
        let q = Message::iterative_query(2, name("www.example.com"), RecordType::A);
        let (resp, kind) = authoritative_answer(com, &t, &q);
        assert_eq!(kind, AnswerKind::Referral);
        // The referred zone should be example.com's.
        assert_eq!(resp.authority[0].name, name("example.com"));
    }

    #[test]
    fn auth_answers() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(3, name("www.example.com"), RecordType::A);
        let (resp, kind) = authoritative_answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(resp.header.authoritative);
        assert_eq!(
            resp.resolve_a_chain(&name("www.example.com")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
    }

    #[test]
    fn auth_denies_unknown_name() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(4, name("nosuch.example.com"), RecordType::A);
        let (resp, kind) = authoritative_answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::NxDomain);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn in_zone_cname_chain_followed() {
        let mut t = tree();
        {
            let z = t.zone_mut(&name("example.com")).unwrap();
            z.add_cname(name("web.example.com"), name("www.example.com"));
        }
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(5, name("web.example.com"), RecordType::A);
        let (resp, kind) = authoritative_answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::Authoritative);
        assert_eq!(
            resp.resolve_a_chain(&name("web.example.com")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
    }

    #[test]
    fn empty_question_is_formerr() {
        let t = tree();
        let root = t.zone(&DomainName::root()).unwrap();
        let q = Message::default();
        let (resp, _) = authoritative_answer(root, &t, &q);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn responses_are_wire_valid() {
        let t = tree();
        for (zone_apex, qn) in [
            (DomainName::root(), name("www.example.com")),
            (name("com"), name("www.example.com")),
            (name("example.com"), name("www.example.com")),
            (name("example.com"), name("zz.example.com")),
        ] {
            let zone = t.zone(&zone_apex).unwrap();
            let q = Message::iterative_query(6, qn, RecordType::A);
            let (resp, _) = authoritative_answer(zone, &t, &q);
            let bytes = resp.encode().unwrap();
            let decoded = Message::decode(&bytes).unwrap();
            assert_eq!(decoded.header.rcode, resp.header.rcode);
            assert_eq!(decoded.answers, resp.answers);
        }
    }
}
