//! Domain names.
//!
//! A [`DomainName`] is an ordered sequence of [`Label`]s, stored
//! left-to-right (host-most label first), excluding the implicit root
//! label. Names compare case-insensitively, as required by RFC 1035 §2.3.3
//! and relied on throughout the sensor's keyword matching.
//!
//! Length limits (labels ≤ 63 bytes, whole name ≤ 255 bytes on the wire)
//! are enforced at construction time so that invalid names cannot exist.

use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label in bytes (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum wire length of a whole name in bytes, including length octets
/// and the terminating root byte (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Errors from constructing names or labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (only the root label may be empty, and it is
    /// implicit).
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] bytes.
    LabelTooLong(usize),
    /// The whole name exceeded [`MAX_NAME_LEN`] bytes in wire form.
    NameTooLong(usize),
    /// A label contained a byte we do not accept (we allow ASCII
    /// letters, digits, `-` and `_`; `_` occurs in real reverse trees).
    BadCharacter(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} bytes exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} wire bytes exceeds 255"),
            NameError::BadCharacter(c) => write!(f, "character {c:?} not allowed in a label"),
        }
    }
}

impl std::error::Error for NameError {}

/// A single DNS label: 1–63 bytes of `[A-Za-z0-9_-]`, compared
/// case-insensitively.
#[derive(Debug, Clone, Eq)]
pub struct Label(String);

impl Label {
    /// Construct a label, validating length and character set.
    pub fn new(s: &str) -> Result<Self, NameError> {
        if s.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if s.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(s.len()));
        }
        for c in s.chars() {
            if !(c.is_ascii_alphanumeric() || c == '-' || c == '_') {
                return Err(NameError::BadCharacter(c));
            }
        }
        Ok(Label(s.to_string()))
    }

    /// The label text as given (original case preserved).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The label lowercased, for canonical comparison and keyword matching.
    pub fn to_lowercase(&self) -> String {
        self.0.to_ascii_lowercase()
    }

    /// Wire length: one length octet plus the label bytes.
    pub fn wire_len(&self) -> usize {
        1 + self.0.len()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for b in self.0.bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A fully-qualified domain name (without the trailing dot).
///
/// The empty sequence of labels is the DNS root. Labels are ordered
/// host-first: `mail.example.com` is `["mail", "example", "com"]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DomainName {
    labels: Vec<Label>,
}

impl DomainName {
    /// The DNS root (zero labels).
    pub fn root() -> Self {
        DomainName { labels: Vec::new() }
    }

    /// Build a name from pre-validated labels.
    ///
    /// Fails if the resulting name would exceed the 255-byte wire limit.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, NameError> {
        let name = DomainName { labels };
        let wl = name.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(name)
    }

    /// Parse a dotted name such as `"mail.example.com"`.
    ///
    /// An empty string or `"."` parses as the root. A single trailing dot
    /// is accepted and ignored.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        let labels = s.split('.').map(Label::new).collect::<Result<Vec<_>, _>>()?;
        Self::from_labels(labels)
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the DNS root.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels, host-most first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The left-most (host-most) label, if any.
    ///
    /// The sensor's static-feature matcher favours this label: the paper
    /// classifies `mail.ns.example.com` as `mail`, not `ns`.
    pub fn leftmost(&self) -> Option<&Label> {
        self.labels.first()
    }

    /// Wire length: sum of label wire lengths plus the terminating root
    /// octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(Label::wire_len).sum::<usize>() + 1
    }

    /// The parent name (all but the left-most label); `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(DomainName { labels: self.labels[1..].to_vec() })
        }
    }

    /// True if `self` equals `suffix` or ends with `suffix`'s labels.
    ///
    /// Every name is a subdomain of the root. Comparison is
    /// case-insensitive. `example.com` is a subdomain of `com` and of
    /// itself, but not of `ample.com`.
    pub fn is_subdomain_of(&self, suffix: &DomainName) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - suffix.labels.len();
        self.labels[skip..].iter().zip(suffix.labels.iter()).all(|(a, b)| a == b)
    }

    /// Prepend a label, producing a child name.
    pub fn child(&self, label: Label) -> Result<DomainName, NameError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label);
        labels.extend(self.labels.iter().cloned());
        DomainName::from_labels(labels)
    }

    /// Lowercased dotted representation, for canonical map keys.
    pub fn to_lowercase_string(&self) -> String {
        if self.is_root() {
            return ".".to_string();
        }
        let mut out = String::with_capacity(self.wire_len());
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&l.to_lowercase());
        }
        out
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["mail.example.com", "a.b.c.d.e", "x", "ns1-cache.isp.net", "4.3.2.1.in-addr.arpa"]
        {
            let n = DomainName::parse(s).unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn root_forms() {
        assert!(DomainName::parse("").unwrap().is_root());
        assert!(DomainName::parse(".").unwrap().is_root());
        assert_eq!(DomainName::root().to_string(), ".");
        assert_eq!(DomainName::root().wire_len(), 1);
    }

    #[test]
    fn trailing_dot_accepted() {
        let a = DomainName::parse("example.com.").unwrap();
        let b = DomainName::parse("example.com").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        let a = DomainName::parse("Mail.EXAMPLE.com").unwrap();
        let b = DomainName::parse("mail.example.COM").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn label_validation() {
        assert!(Label::new("").is_err());
        assert!(Label::new(&"a".repeat(63)).is_ok());
        assert!(Label::new(&"a".repeat(64)).is_err());
        assert!(Label::new("with space").is_err());
        assert!(Label::new("ok-label_1").is_ok());
        assert!(matches!(Label::new("é"), Err(NameError::BadCharacter(_))));
    }

    #[test]
    fn name_length_limit() {
        // 4 labels of 63 bytes = 4*64 + 1 = 257 wire bytes > 255.
        let l = "a".repeat(63);
        let long = format!("{l}.{l}.{l}.{l}");
        assert!(matches!(DomainName::parse(&long), Err(NameError::NameTooLong(_))));
        // 3 labels of 63 + one of 61 = 3*64 + 62 + 1 = 255: exactly at limit.
        let ok = format!("{l}.{l}.{l}.{}", "a".repeat(61));
        assert!(DomainName::parse(&ok).is_ok());
    }

    #[test]
    fn subdomain_relation() {
        let n = DomainName::parse("mail.example.com").unwrap();
        let com = DomainName::parse("com").unwrap();
        let example = DomainName::parse("example.com").unwrap();
        let other = DomainName::parse("ample.com").unwrap();
        assert!(n.is_subdomain_of(&com));
        assert!(n.is_subdomain_of(&example));
        assert!(n.is_subdomain_of(&n));
        assert!(n.is_subdomain_of(&DomainName::root()));
        assert!(!n.is_subdomain_of(&other));
        assert!(!example.is_subdomain_of(&n));
    }

    #[test]
    fn leftmost_and_parent() {
        let n = DomainName::parse("mail.ns.example.com").unwrap();
        assert_eq!(n.leftmost().unwrap().as_str(), "mail");
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "ns.example.com");
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn child_builds_fqdn() {
        let base = DomainName::parse("example.com").unwrap();
        let c = base.child(Label::new("www").unwrap()).unwrap();
        assert_eq!(c.to_string(), "www.example.com");
    }

    #[test]
    fn lowercase_string_is_canonical() {
        let n = DomainName::parse("MaIl.Example.COM").unwrap();
        assert_eq!(n.to_lowercase_string(), "mail.example.com");
    }
}
