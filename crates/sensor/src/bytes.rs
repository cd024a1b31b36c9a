//! 8-wide byte-block helpers for ASCII keyword matching.
//!
//! The static-feature classifier compares every dot-component of a
//! querier's reverse name against ~50 keywords, case-insensitively.
//! Done naively that is a byte-at-a-time `eq_ignore_ascii_case` per
//! keyword. The block form here does the case work **once** per
//! component — folding to lowercase in branchless 8-byte blocks — and
//! then each keyword comparison is a single masked `u64` equality on
//! the packed first eight bytes (plus a plain slice compare for the
//! rare longer keyword).
//!
//! Everything operates on ASCII only; DNS labels are validated ASCII
//! at construction (`bs_dns::Label`), so byte-wise folding is exact.

/// Branchless ASCII lowercase of one byte: adds `0x20` exactly when
/// the byte is `A..=Z`. The comparison compiles to a mask, not a
/// branch, so the per-block loop below vectorizes.
#[inline]
fn lower(b: u8) -> u8 {
    b + 0x20 * u8::from(b.wrapping_sub(b'A') < 26)
}

/// Fold `src` to ASCII lowercase into `dst` (same length), processing
/// full 8-byte blocks first and the tail after — the whole body is
/// branch-free per byte.
///
/// # Panics
/// If `dst` is shorter than `src`.
#[inline]
pub(crate) fn fold_ascii_lower(src: &[u8], dst: &mut [u8]) {
    let n = src.len();
    let (src8, src_tail) = src.split_at(n - n % 8);
    let dst8 = &mut dst[..n - n % 8];
    for (d, s) in dst8.chunks_exact_mut(8).zip(src8.chunks_exact(8)) {
        for l in 0..8 {
            d[l] = lower(s[l]);
        }
    }
    for (d, s) in dst[n - n % 8..n].iter_mut().zip(src_tail) {
        *d = lower(*s);
    }
}

/// Pack the first `min(8, bytes.len())` bytes little-endian into a
/// `u64`, zero-padded — one load's worth of prefix for masked
/// comparison against [`prefix_mask`]-masked keyword heads.
#[inline]
pub(crate) fn pack_prefix(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

/// The mask selecting the low `min(8, len)` bytes of a packed prefix:
/// `pack_prefix(a) & prefix_mask(k) == pack_prefix(&a[..k])` whenever
/// `a.len() >= k`.
#[inline]
pub(crate) fn prefix_mask(len: usize) -> u64 {
    if len >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * len)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_folds_only_uppercase() {
        for b in 0u8..=127 {
            let want = b.to_ascii_lowercase();
            assert_eq!(lower(b), want, "byte {b}");
        }
    }

    #[test]
    fn fold_handles_blocks_and_tails() {
        for len in 0..=24usize {
            let src: Vec<u8> = (0..len).map(|i| b"AbC-Z9xY"[i % 8]).collect();
            let mut dst = vec![0u8; len];
            fold_ascii_lower(&src, &mut dst);
            let want: Vec<u8> = src.iter().map(|b| b.to_ascii_lowercase()).collect();
            assert_eq!(dst, want, "len {len}");
        }
    }

    #[test]
    fn pack_prefix_is_le_zero_padded() {
        assert_eq!(pack_prefix(b"ab"), u64::from_le_bytes(*b"ab\0\0\0\0\0\0"));
        assert_eq!(pack_prefix(b"abcdefgh"), u64::from_le_bytes(*b"abcdefgh"));
        assert_eq!(pack_prefix(b"abcdefghij"), u64::from_le_bytes(*b"abcdefgh"));
        assert_eq!(pack_prefix(b""), 0);
    }

    #[test]
    fn prefix_mask_selects_low_bytes() {
        assert_eq!(prefix_mask(0), 0);
        assert_eq!(prefix_mask(1), 0xFF);
        assert_eq!(prefix_mask(8), u64::MAX);
        assert_eq!(prefix_mask(12), u64::MAX);
        let long = b"mailserver";
        for k in 0..=8 {
            assert_eq!(
                pack_prefix(long) & prefix_mask(k),
                pack_prefix(&long[..k]),
                "prefix length {k}"
            );
        }
    }
}
