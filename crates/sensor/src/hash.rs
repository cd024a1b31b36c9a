//! The hasher behind every table in this crate.
//!
//! The keys are packed IPv4 addresses (`u32`) and packed
//! `(originator << 32) | querier` pairs (`u64`), so one multiply by
//! 2⁶⁴/φ replaces SipHash. It is folded at both ends because std's
//! table picks the bucket from the *low* bits of the hash and the
//! control tag from the top seven: `x ^ x >> 32` going in lets pairs
//! that differ only in the originator reach the low half of the
//! product, `h ^ h >> 32` coming out brings the well-mixed high half
//! down to where the bucket index is read. **Unkeyed**: whoever
//! chooses the addresses can construct collisions; the sensor bounds
//! what that costs with its per-window caps, not with the hash.

use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴/φ, the Fibonacci-hashing multiplier (odd).
pub(crate) const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

/// `S` in `HashMap<u32 | u64, V, S>` and `HashSet<u32, S>`.
pub(crate) type IntHash = BuildHasherDefault<IntHasher>;

#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the sensor's table keys are u32 and u64");
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (x ^ (x >> 32)).wrapping_mul(PHI64);
        self.0 = h ^ (h >> 32);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    /// Over the three key shapes the sensor produces, the bits std's
    /// table reads — the low 16 (bucket index of a 65 536-bucket
    /// table) and the top 7 (control tag) — each take at least half of
    /// their possible values. A bare multiply fails the shared-querier
    /// shape: its low bits never see the originator.
    #[test]
    fn bucket_and_tag_bits_spread_over_the_sensor_key_shapes() {
        fn hash(key: impl Hash) -> u64 {
            IntHash::default().hash_one(key)
        }
        fn assert_spread(shape: &str, hash_of: fn(u32) -> u64) {
            let hashes: Vec<u64> = (0..65_536).map(hash_of).collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFFF).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() >= 32_768, "{shape}: {} of 65 536 bucket indices", low.len());
            assert!(top.len() >= 64, "{shape}: {} of 128 control tags", top.len());
        }
        assert_spread("sequential IPv4", |i| hash(0xC0A8_0000 + i));
        assert_spread("pairs sharing one querier", |i| {
            hash(u64::from(0xCB00_7100 + i) << 32 | 0x0A01_0203)
        });
        assert_spread("pairs sharing one originator", |i| {
            hash(0xCB00_7109 << 32 | u64::from(0x0A00_0000 + i))
        });
    }
}
