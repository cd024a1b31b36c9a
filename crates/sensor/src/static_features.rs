//! Static features: classifying querier reverse names (paper §III-C).
//!
//! Each querier contributes exactly one static category, determined
//! from its own reverse name: keyword rules applied per dot-component
//! from the left, taking the first matching rule — so
//! `mail.ns.example.com` and `mail-ns.example.com` are both `mail`,
//! and `mail.google.sim` is `mail` rather than `google`.

use crate::bytes::{fold_ascii_lower, pack_prefix, prefix_mask};
use bs_dns::{DomainName, LabelBytes};
use bs_netsim::types::NameOutcome;
use std::sync::OnceLock;

/// The fourteen static querier categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StaticFeature {
    /// Auto-named residential hosts (`home1-2-3-4.example.com`).
    Home,
    /// Mail infrastructure.
    Mail,
    /// Name servers.
    Ns,
    /// Firewalls.
    Fw,
    /// Anti-spam appliances.
    AntiSpam,
    /// Web servers.
    Www,
    /// NTP servers.
    Ntp,
    /// CDN infrastructure (by operator suffix).
    Cdn,
    /// Amazon AWS (by suffix).
    Aws,
    /// Microsoft Azure (by suffix).
    Ms,
    /// Google address space (by suffix here; the paper uses SPF).
    Google,
    /// A name matching no category.
    OtherUnclassified,
    /// The querier's reverse authority is unreachable.
    Unreach,
    /// The querier has no reverse name.
    NxDomain,
}

impl StaticFeature {
    /// All categories, in feature-vector order.
    pub const ALL: [StaticFeature; 14] = [
        StaticFeature::Home,
        StaticFeature::Mail,
        StaticFeature::Ns,
        StaticFeature::Fw,
        StaticFeature::AntiSpam,
        StaticFeature::Www,
        StaticFeature::Ntp,
        StaticFeature::Cdn,
        StaticFeature::Aws,
        StaticFeature::Ms,
        StaticFeature::Google,
        StaticFeature::OtherUnclassified,
        StaticFeature::Unreach,
        StaticFeature::NxDomain,
    ];

    /// Index in the feature vector.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|f| *f == self).expect("feature in ALL")
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StaticFeature::Home => "home",
            StaticFeature::Mail => "mail",
            StaticFeature::Ns => "ns",
            StaticFeature::Fw => "fw",
            StaticFeature::AntiSpam => "antispam",
            StaticFeature::Www => "www",
            StaticFeature::Ntp => "ntp",
            StaticFeature::Cdn => "cdn",
            StaticFeature::Aws => "aws",
            StaticFeature::Ms => "ms",
            StaticFeature::Google => "google",
            StaticFeature::OtherUnclassified => "other-unclassified",
            StaticFeature::Unreach => "unreach",
            StaticFeature::NxDomain => "nxdomain",
        }
    }
}

/// Keyword rules in priority order (paper §III-C: "taking first rule
/// when there are multiple matches").
const RULES: &[(StaticFeature, &[&str])] = &[
    (
        StaticFeature::Home,
        &[
            "ap", "cable", "cpe", "customer", "dsl", "dynamic", "fiber", "flets", "home", "host",
            "ip", "net", "pool", "pop", "retail", "user",
        ],
    ),
    (
        StaticFeature::Mail,
        &[
            "mail",
            "mx",
            "smtp",
            "post",
            "correo",
            "poczta",
            "send",
            "lists",
            "newsletter",
            "zimbra",
            "mta",
            "imap",
        ],
    ),
    (StaticFeature::Ns, &["cns", "dns", "ns", "cache", "resolv", "name"]),
    (StaticFeature::Fw, &["firewall", "wall", "fw"]),
    (StaticFeature::AntiSpam, &["ironport", "spam"]),
    (StaticFeature::Www, &["www"]),
    (StaticFeature::Ntp, &["ntp"]),
];

/// Operator suffix components for infrastructure categories.
const CDN_SUFFIXES: &[&str] = &["akamai", "edgecast", "cdnetworks", "llnw", "chinacache"];

/// Does `component` match `keyword`? Exact, keyword+digits, or
/// keyword followed by `-`/digits (so `mail2`, `mail-ns`, `dsl1-2-3-4`
/// all match, but `mailing` does not — a trailing letter means a
/// different word). The rule as the reference matcher spells it; the
/// packed matcher applies the same boundary test to folded bytes.
///
/// DNS labels are ASCII by construction ([`bs_dns::Label`] validates
/// the character set), so byte-wise ASCII folding is exact.
#[cfg(test)]
fn component_matches(component: &[u8], keyword: &[u8]) -> bool {
    if component.len() < keyword.len() {
        return false;
    }
    let (head, rest) = component.split_at(keyword.len());
    head.eq_ignore_ascii_case(keyword)
        && (rest.is_empty() || rest[0] == b'-' || rest[0].is_ascii_digit())
}

/// Which dot-component wins when several match (ablation knob; the
/// paper, and the default everywhere, favours the left-most).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOrder {
    /// The paper's rule: scan components left to right.
    LeftmostFirst,
    /// Ablation variant: scan right to left (suffix-biased).
    RightmostFirst,
}

/// The reference component classifier, compiled for tests only:
/// keyword-at-a-time, byte-at-a-time case-insensitive comparison. The
/// executable specification of the first-match rule the packed fast
/// path below must reproduce (`matcher_entropy_equivalence.rs`).
#[cfg(test)]
fn classify_component_reference(component: &[u8]) -> Option<StaticFeature> {
    for (feature, keywords) in RULES {
        for kw in *keywords {
            if component_matches(component, kw.as_bytes()) {
                return Some(*feature);
            }
        }
    }
    // Operator suffixes are whole components (akamai, amazonaws, …).
    if CDN_SUFFIXES.iter().any(|s| component.eq_ignore_ascii_case(s.as_bytes())) {
        return Some(StaticFeature::Cdn);
    }
    if component.eq_ignore_ascii_case(b"amazonaws") {
        Some(StaticFeature::Aws)
    } else if component.eq_ignore_ascii_case(b"azure") || component.eq_ignore_ascii_case(b"msazure")
    {
        Some(StaticFeature::Ms)
    } else if component.eq_ignore_ascii_case(b"google") {
        Some(StaticFeature::Google)
    } else {
        None
    }
}

/// One keyword of the flattened rule table, with its first eight bytes
/// packed for a single masked `u64` comparison.
struct PackedKeyword {
    /// First `min(8, len)` keyword bytes, little-endian, zero-padded.
    prefix: u64,
    /// `prefix_mask(len)` — selects the bytes `prefix` covers.
    mask: u64,
    /// Keyword bytes beyond the eighth (usually empty).
    tail: &'static [u8],
    /// Full keyword length.
    len: usize,
    /// Whole-component match (operator suffixes) vs. keyword-prefix
    /// match with a `-`/digit boundary (the RULES table).
    exact: bool,
    feature: StaticFeature,
}

/// The flattened keyword table in **exactly** the reference's scan
/// order: every RULES keyword (rule priority, then list order), then
/// the whole-component operator suffixes. First match wins, so order
/// is semantics.
fn packed_rules() -> &'static [PackedKeyword] {
    static TABLE: OnceLock<Vec<PackedKeyword>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Vec::new();
        let mut push = |kw: &'static str, exact: bool, feature: StaticFeature| {
            let b = kw.as_bytes();
            t.push(PackedKeyword {
                prefix: pack_prefix(b),
                mask: prefix_mask(b.len()),
                tail: if b.len() > 8 { &b[8..] } else { &[] },
                len: b.len(),
                exact,
                feature,
            });
        };
        for (feature, keywords) in RULES {
            for kw in *keywords {
                push(kw, false, *feature);
            }
        }
        for s in CDN_SUFFIXES {
            push(s, true, StaticFeature::Cdn);
        }
        push("amazonaws", true, StaticFeature::Aws);
        push("azure", true, StaticFeature::Ms);
        push("msazure", true, StaticFeature::Ms);
        push("google", true, StaticFeature::Google);
        t
    })
}

/// The packed fast component classifier: fold the component to
/// lowercase **once** in branchless 8-byte blocks, pack its first
/// eight bytes, then test each keyword with one masked `u64` equality
/// (plus a short tail compare for the few keywords longer than eight
/// bytes) instead of a byte-at-a-time case-insensitive loop per
/// keyword. Identical first-match semantics to the test-only
/// reference matcher: same table order, same boundary rule (`-`/digit
/// continues a keyword, a letter does not).
fn classify_component(component: &[u8]) -> Option<StaticFeature> {
    let n = component.len();
    let mut buf = [0u8; 64];
    // DNS labels are ≤ 63 bytes. Anything longer (not constructible
    // through bs_dns) folds only its head: every test below reads the
    // true length `n` and at most one byte past the longest keyword.
    let head = n.min(buf.len());
    let folded = &mut buf[..head];
    fold_ascii_lower(&component[..head], folded);
    let packed = pack_prefix(folded);
    for e in packed_rules() {
        let fits = if e.exact { n == e.len } else { n >= e.len };
        if !fits || packed & e.mask != e.prefix {
            continue;
        }
        if e.len > 8 && folded[8..e.len] != *e.tail {
            continue;
        }
        if !e.exact && n > e.len {
            let next = folded[e.len];
            if next != b'-' && !next.is_ascii_digit() {
                continue;
            }
        }
        return Some(e.feature);
    }
    None
}

fn classify_with(
    name: &DomainName,
    order: MatchOrder,
    classify: impl Fn(&[u8]) -> Option<StaticFeature>,
) -> StaticFeature {
    /// The first label from the right that `classify` places: one forward
    /// walk down, each label tested on the way back up.
    fn rightmost(
        mut labels: LabelBytes<'_>,
        classify: &impl Fn(&[u8]) -> Option<StaticFeature>,
    ) -> Option<StaticFeature> {
        let label = labels.next()?;
        rightmost(labels, classify).or_else(|| classify(label))
    }
    let mut labels = name.label_bytes();
    match order {
        MatchOrder::LeftmostFirst => labels.find_map(&classify),
        MatchOrder::RightmostFirst => rightmost(labels, &classify),
    }
    .unwrap_or(StaticFeature::OtherUnclassified)
}

/// Classify a reverse name into a static category with an explicit
/// component-scan order (packed fast matcher).
pub fn classify_name_with_order(name: &DomainName, order: MatchOrder) -> StaticFeature {
    classify_with(name, order, classify_component)
}

/// [`classify_name_with_order`] through the byte-at-a-time reference
/// matcher, compiled for tests only — the executable specification the
/// packed fast path is property-tested against.
#[cfg(test)]
pub(crate) fn classify_name_with_order_reference(
    name: &DomainName,
    order: MatchOrder,
) -> StaticFeature {
    classify_with(name, order, classify_component_reference)
}

/// Classify a reverse name into a static category (the paper's
/// left-most-first rule).
pub fn classify_name(name: &DomainName) -> StaticFeature {
    classify_name_with_order(name, MatchOrder::LeftmostFirst)
}

/// Classify the full reverse-lookup outcome for a querier.
pub fn classify_querier_name(outcome: &NameOutcome) -> StaticFeature {
    match outcome {
        NameOutcome::Name(n) => classify_name(n),
        NameOutcome::NxDomain => StaticFeature::NxDomain,
        NameOutcome::Unreachable => StaticFeature::Unreach,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(s: &str) -> StaticFeature {
        classify_name(&DomainName::parse(s).unwrap())
    }

    #[test]
    fn paper_examples() {
        // §III-C: "both mail.ns.example.com and mail-ns.example.com are mail"
        assert_eq!(classify("mail.ns.example.com"), StaticFeature::Mail);
        assert_eq!(classify("mail-ns.example.com"), StaticFeature::Mail);
        // home computers with embedded addresses
        assert_eq!(classify("home1-2-3-4.example.com"), StaticFeature::Home);
        assert_eq!(classify("dsl1-2-3-4.bigisp.net"), StaticFeature::Home);
    }

    #[test]
    fn leftmost_component_wins() {
        // mail.google.sim: left-most "mail" beats the google suffix.
        assert_eq!(classify("mail.google.sim"), StaticFeature::Mail);
        // but a neutral host under google is google.
        assert_eq!(classify("a1-2-3-4.compute.google.sim"), StaticFeature::Google);
    }

    #[test]
    fn rightmost_first_scans_from_the_tld() {
        let by = |s: &str, order| classify_name_with_order(&DomainName::parse(s).unwrap(), order);
        assert_eq!(by("mail.google.sim", MatchOrder::RightmostFirst), StaticFeature::Google);
        assert_eq!(by("mail.dsl-1.example.com", MatchOrder::RightmostFirst), StaticFeature::Home);
        assert_eq!(by("mail.dsl-1.example.com", MatchOrder::LeftmostFirst), StaticFeature::Mail);
    }

    #[test]
    fn first_rule_wins_on_multi_match() {
        // "pop" appears in both home and mail lists; home comes first.
        assert_eq!(classify("pop3.example.com"), StaticFeature::Home);
    }

    #[test]
    fn keyword_requires_word_boundary() {
        // 'mailing' should NOT match 'mail'; 'wall' rule does not match 'wallet'.
        assert_eq!(classify("mailing.example.com"), StaticFeature::OtherUnclassified);
        assert_eq!(classify("wallet.example.com"), StaticFeature::OtherUnclassified);
        // but digits and dashes do continue a keyword
        assert_eq!(classify("mx01.example.jp"), StaticFeature::Mail);
        assert_eq!(classify("ns1-cache.isp.net"), StaticFeature::Ns);
        assert_eq!(classify("fw2.corp.example.com"), StaticFeature::Fw);
    }

    #[test]
    fn infrastructure_suffixes() {
        assert_eq!(classify("a96-7-4-2.deploy.akamai.sim"), StaticFeature::Cdn);
        assert_eq!(classify("edge3.edgecast.sim"), StaticFeature::Cdn);
        assert_eq!(classify("ec2-1-2-3-4.compute.amazonaws.sim"), StaticFeature::Aws);
        assert_eq!(classify("waws-prod.azure.sim"), StaticFeature::Ms);
    }

    #[test]
    fn all_rule_categories_reachable() {
        assert_eq!(classify("ironport2.example.com"), StaticFeature::AntiSpam);
        assert_eq!(classify("www.example.jp"), StaticFeature::Www);
        assert_eq!(classify("ntp1.university.edu"), StaticFeature::Ntp);
        assert_eq!(classify("zxqv77.example.org"), StaticFeature::OtherUnclassified);
    }

    #[test]
    fn outcome_variants() {
        assert_eq!(classify_querier_name(&NameOutcome::NxDomain), StaticFeature::NxDomain);
        assert_eq!(classify_querier_name(&NameOutcome::Unreachable), StaticFeature::Unreach);
        let n = DomainName::parse("smtp.example.com").unwrap();
        assert_eq!(classify_querier_name(&NameOutcome::Name(n)), StaticFeature::Mail);
    }

    #[test]
    fn packed_matcher_matches_reference_on_adversarial_names() {
        let cases = [
            "mail.ns.example.com",
            "MAIL-NS.Example.COM",
            "mailing.example.com",
            "newsletter7.example.com", // >8-byte keyword with boundary digit
            "newslettex.example.com",  // 8-byte prefix matches, tail differs
            "NewsLetter.example.com",  // >8-byte keyword, mixed case
            "chinacache.sim",          // >8-byte exact suffix
            "chinacache1.sim",         // exact suffix must not take a digit tail
            "amazonaws.sim",
            "amazonaws1.sim",
            "pop3.example.com",
            "a96-7-4-2.deploy.akamai.sim",
            "wallet.example.com",
            "fw.example.com",     // keyword == whole component
            "m.example.com",      // shorter than every keyword
            "customer-1.isp.net", // exactly 8 bytes, dash boundary
        ];
        for c in cases {
            let n = DomainName::parse(c).unwrap();
            for order in [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst] {
                assert_eq!(
                    classify_name_with_order(&n, order),
                    classify_name_with_order_reference(&n, order),
                    "{c} under {order:?}"
                );
            }
        }
        // Longer than any DNS label, and than the matcher's fold buffer.
        for head in ["Mail-", "mailx", "newsletter7", "chinacache", "zz"] {
            let long = format!("{head}{}", "a".repeat(80)).into_bytes();
            assert_eq!(classify_component(&long), classify_component_reference(&long), "{head}…");
        }
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, f) in StaticFeature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        assert_eq!(StaticFeature::ALL.len(), 14);
    }
}
