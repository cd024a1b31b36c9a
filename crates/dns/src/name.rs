//! Domain names.
//!
//! A [`DomainName`] is one buffer: its labels, host-most first, in wire
//! form (a length octet, then the bytes) without the root octet, so
//! `mail.example.com` is `\x04mail\x07example\x03com` and the root is
//! empty. It is validated where it is built — labels of 1–63 bytes of
//! `[A-Za-z0-9_-]`, at most 255 bytes on the wire — so invalid names
//! cannot exist. Names compare and hash case-insensitively (RFC 1035
//! §2.3.3), as the sensor's keyword matching relies on, by folding the
//! buffer's bytes: a length octet is below 64, so folding keeps it.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum length of a single label in bytes (RFC 1035 §2.3.4).
pub(crate) const MAX_LABEL_LEN: usize = 63;

/// Maximum wire length of a whole name in bytes, including length octets
/// and the terminating root byte (RFC 1035 §2.3.4).
pub(crate) const MAX_NAME_LEN: usize = 255;

/// Errors from constructing names or labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (only the root label may be empty, and it is
    /// implicit).
    EmptyLabel,
    /// A label exceeded `MAX_LABEL_LEN` bytes.
    LabelTooLong(usize),
    /// The whole name exceeded `MAX_NAME_LEN` bytes in wire form.
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

/// May a label hold `b`?
pub(crate) fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

/// Check one label: its length, then its first bad character.
fn check_label(s: &str) -> Result<(), NameError> {
    if s.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if s.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(s.len()));
    }
    match s.chars().find(|&c| !c.is_ascii() || !is_label_byte(c as u8)) {
        Some(c) => Err(NameError::BadCharacter(c)),
        None => Ok(()),
    }
}

/// Append a checked label in wire form.
fn push_label(wire: &mut Vec<u8>, label: &str) {
    wire.push(label.len() as u8);
    wire.extend_from_slice(label.as_bytes());
}

/// A single DNS label: 1–63 bytes of `[A-Za-z0-9_-]`, the validated input
/// of [`DomainName::child`] and [`DomainName::from_labels`].
#[derive(Debug, Clone)]
pub struct Label(String);

impl Label {
    /// Construct a label, validating length and character set.
    pub fn new(s: &str) -> Result<Self, NameError> {
        check_label(s)?;
        Ok(Label(s.to_string()))
    }
}

/// A fully-qualified domain name (without the trailing dot).
///
/// The name with no labels is the DNS root. Labels are ordered
/// host-first: `mail.example.com` is `["mail", "example", "com"]`.
#[derive(Clone, Default)]
pub struct DomainName {
    /// The labels in wire form, host-most first, without the root octet.
    wire: Box<[u8]>,
}

impl DomainName {
    /// The DNS root (zero labels).
    pub fn root() -> Self {
        DomainName::default()
    }

    /// A name of checked labels in wire form (no root octet); fails if it
    /// would exceed the 255-byte wire limit.
    pub(crate) fn from_wire(wire: impl Into<Box<[u8]>>) -> Result<Self, NameError> {
        let wire = wire.into();
        match wire.len() + 1 {
            wl if wl > MAX_NAME_LEN => Err(NameError::NameTooLong(wl)),
            _ => Ok(DomainName { wire }),
        }
    }

    /// Build a name from pre-validated labels.
    ///
    /// Fails if the resulting name would exceed the 255-byte wire limit.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, NameError> {
        let mut wire = Vec::new();
        for l in &labels {
            push_label(&mut wire, &l.0);
        }
        Self::from_wire(wire)
    }

    /// Parse a dotted name such as `"mail.example.com"`.
    ///
    /// An empty string or `"."` parses as the root. A single trailing dot
    /// is accepted and ignored. A bad label is reported before a name
    /// that is too long.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        // A length octet per dot, plus one: the buffer's exact size.
        let mut wire = Vec::with_capacity(s.len() + 1);
        for label in s.split('.') {
            check_label(label)?;
            push_label(&mut wire, label);
        }
        Self::from_wire(wire)
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels().len()
    }

    /// True for the DNS root.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// The labels, host-most first; `.rev()` walks them from the TLD.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + Clone + '_ {
        self.label_bytes().map(|l| std::str::from_utf8(l).expect("labels are ASCII"))
    }

    /// [`labels`](Self::labels) as bytes, not re-checked as UTF-8, for
    /// the sensor's keyword matcher.
    pub fn label_bytes(&self) -> LabelBytes<'_> {
        LabelBytes { rest: &self.wire }
    }

    /// The labels in wire form (length octet, then bytes; no root
    /// octet), as checked where the name was built.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// The left-most (host-most) label, if any.
    ///
    /// The sensor's static-feature matcher favours this label: the paper
    /// classifies `mail.ns.example.com` as `mail`, not `ns`.
    pub fn leftmost(&self) -> Option<&str> {
        self.labels().next()
    }

    /// Wire length: the labels' length octets and bytes plus the
    /// terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The label-aligned suffixes of the buffer, longest first: the whole
    /// name, its parent, …, and last the root's empty buffer.
    pub(crate) fn suffixes(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::successors(Some(&self.wire[..]), |w| {
            w.split_first().map(|(&len, rest)| &rest[len as usize..])
        })
    }

    /// The parent name (all but the left-most label); `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        self.suffixes().nth(1).map(|w| DomainName { wire: w.into() })
    }

    /// True if `self` equals `suffix` or ends with `suffix`'s labels.
    ///
    /// Every name is a subdomain of the root. Comparison is
    /// case-insensitive. `example.com` is a subdomain of `com` and of
    /// itself, but not of `ample.com`.
    pub fn is_subdomain_of(&self, suffix: &DomainName) -> bool {
        self.suffixes()
            .find(|s| s.len() <= suffix.wire.len())
            .is_some_and(|s| s.eq_ignore_ascii_case(&suffix.wire))
    }

    /// Prepend a label, producing a child name.
    pub fn child(&self, label: Label) -> Result<DomainName, NameError> {
        let mut wire = Vec::with_capacity(1 + label.0.len() + self.wire.len());
        push_label(&mut wire, &label.0);
        wire.extend_from_slice(&self.wire);
        Self::from_wire(wire)
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The length first, so no name's input is a prefix of another's.
        state.write_usize(self.wire.len());
        self.wire.iter().for_each(|b| state.write_u8(b.to_ascii_lowercase()));
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(l)?;
        }
        Ok(())
    }
}

/// The dotted name, as [`fmt::Display`] prints it.
impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

/// The labels of a [`DomainName`] as bytes, host-most first, counted only
/// when asked, so a forward walk never pays for the count. A step from
/// the back re-walks the length octets from the front, so `.rev()` costs
/// time quadratic in the label count (at most 127).
#[derive(Debug, Clone)]
pub struct LabelBytes<'a> {
    /// The labels not yet yielded, in wire form.
    rest: &'a [u8],
}

impl<'a> Iterator for LabelBytes<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&n, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(n as usize);
        self.rest = rest;
        Some(label)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.clone().count();
        (n, Some(n))
    }
}

impl<'a> DoubleEndedIterator for LabelBytes<'a> {
    fn next_back(&mut self) -> Option<&'a [u8]> {
        // Length octets lead their labels: step to the last one's.
        let mut at = 0;
        while at + 1 + *self.rest.get(at)? as usize != self.rest.len() {
            at += 1 + self.rest[at] as usize;
        }
        let (head, last) = self.rest.split_at(at);
        self.rest = head;
        Some(&last[1..])
    }
}

impl ExactSizeIterator for LabelBytes<'_> {}

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
        assert_eq!(n.leftmost().unwrap(), "mail");
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
}
