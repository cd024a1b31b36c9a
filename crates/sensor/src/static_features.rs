//! Static features: classifying querier reverse names (paper §III-C).
//!
//! Each querier contributes exactly one static category, determined
//! from its own reverse name: keyword rules applied per dot-component
//! from the left, taking the first matching rule — so
//! `mail.ns.example.com` and `mail-ns.example.com` are both `mail`,
//! and `mail.google.sim` is `mail` rather than `google`.

use bs_dns::{DomainName, LabelBytes};
use bs_netsim::types::NameOutcome;

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
/// different word).
///
/// DNS labels are ASCII by construction ([`bs_dns::Label`] validates
/// the character set), so byte-wise ASCII folding is exact.
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

/// The category of one dot-component: the first keyword rule it
/// matches, keyword at a time and byte at a time, else an operator
/// suffix it equals, else none.
fn classify_component(component: &[u8]) -> Option<StaticFeature> {
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

/// Classify a reverse name into a static category with an explicit
/// component-scan order.
pub fn classify_name_with_order(name: &DomainName, order: MatchOrder) -> StaticFeature {
    /// The first label from the right that classifies: one forward
    /// walk down, each label tested on the way back up.
    fn rightmost(mut labels: LabelBytes<'_>) -> Option<StaticFeature> {
        let label = labels.next()?;
        rightmost(labels).or_else(|| classify_component(label))
    }
    let mut labels = name.label_bytes();
    match order {
        MatchOrder::LeftmostFirst => labels.find_map(classify_component),
        MatchOrder::RightmostFirst => rightmost(labels),
    }
    .unwrap_or(StaticFeature::OtherUnclassified)
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
    use bs_par::Rng;

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

    /// Names built to sit on the rule's edges — case, the `-`/digit
    /// boundary, keywords of eight bytes and longer, whole-component
    /// suffixes with a tail — with their category under each order, as
    /// the packed matcher this one replaced classified them.
    #[test]
    fn adversarial_names_keep_their_categories() {
        use StaticFeature::*;
        let cases = [
            ("mail.ns.example.com", Mail, Ns),
            ("MAIL-NS.Example.COM", Mail, Mail),
            ("mailing.example.com", OtherUnclassified, OtherUnclassified),
            ("newsletter7.example.com", Mail, Mail), // >8-byte keyword, digit boundary
            ("newslettex.example.com", OtherUnclassified, OtherUnclassified), // tail differs
            ("NewsLetter.example.com", Mail, Mail),  // >8-byte keyword, mixed case
            ("chinacache.sim", Cdn, Cdn),            // >8-byte whole-component suffix
            ("chinacache1.sim", OtherUnclassified, OtherUnclassified), // suffix takes no tail
            ("amazonaws.sim", Aws, Aws),
            ("amazonaws1.sim", OtherUnclassified, OtherUnclassified),
            ("pop3.example.com", Home, Home),
            ("a96-7-4-2.deploy.akamai.sim", Cdn, Cdn),
            ("wallet.example.com", OtherUnclassified, OtherUnclassified),
            ("fw.example.com", Fw, Fw), // keyword == whole component
            ("m.example.com", OtherUnclassified, OtherUnclassified), // shorter than every keyword
            ("customer-1.isp.net", Home, Home), // 8-byte keyword, dash boundary
        ];
        for (c, leftmost, rightmost) in cases {
            let n = DomainName::parse(c).unwrap();
            assert_eq!(classify_name_with_order(&n, MatchOrder::LeftmostFirst), leftmost, "{c}");
            assert_eq!(classify_name_with_order(&n, MatchOrder::RightmostFirst), rightmost, "{c}");
        }
    }

    /// Keyword fragments spliced into random names so rule hits,
    /// boundary cases and near-misses all occur in
    /// `seeded_names_keep_their_digest`.
    const SPLICES: [&str; 14] = [
        "",
        "mail",
        "MAIL",
        "mailing",
        "ns",
        "pop3",
        "newsletter",
        "newsletter7",
        "chinacache",
        "amazonaws",
        "google",
        "customer-1",
        "fw",
        "wallet",
    ];

    /// One label over the full DNS charset: `[A-Za-z0-9_-]{1,16}`.
    fn arb_label(rng: &mut Rng) -> String {
        const CHARSET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-";
        (0..rng.range(1..17)).map(|_| CHARSET[rng.range(0..CHARSET.len())] as char).collect()
    }

    /// 256 seeded names (1–4 labels over the full DNS charset, mixed
    /// case, with a keyword fragment spliced in) classified under both
    /// orders fold to the FNV-1a of their category indices that the
    /// packed matcher and its byte-at-a-time reference both gave
    /// before the packed one was deleted.
    #[test]
    fn seeded_names_keep_their_digest() {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in 0..256 {
            let mut rng = Rng::new(seed ^ 0x57A7);
            let mut labels: Vec<String> =
                (0..rng.range(1..5)).map(|_| arb_label(&mut rng)).collect();
            let splice = SPLICES[rng.range(0..SPLICES.len())];
            let splice_at = rng.range(0..5);
            if !splice.is_empty() {
                labels.insert(splice_at.min(labels.len()), splice.to_string());
            }
            let name = DomainName::parse(&labels.join(".")).expect("charset labels parse");
            for order in [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst] {
                let index = classify_name_with_order(&name, order).index() as u64;
                digest = (digest ^ index).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(digest, 0xdc0a_c0ba_5f3b_95b2, "got {digest:#018x}");
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, f) in StaticFeature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        assert_eq!(StaticFeature::ALL.len(), 14);
    }
}
