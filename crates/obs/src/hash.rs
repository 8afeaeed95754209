//! The workspace's two stable hash primitives.
//!
//! `std`'s `DefaultHasher` is seeded per process; rendezvous shard
//! weights, dedup fingerprints, telemetry noise and trace ids must agree
//! across processes and runs, so they all build on these two
//! dependency-free functions. They live here because `obs` is the one
//! crate every user already links. (`rand`, the zero-dependency stand-in
//! for the published crate, keeps its own stateful SplitMix64 *generator*
//! for seed expansion.)

/// FNV-1a offset basis: the state an [`fnv1a`] fold starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// splitmix64: a cheap, well-mixed 64-bit permutation of `x`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold `bytes` into the running FNV-1a state `h` (start from
/// [`FNV1A_OFFSET`]). Folding piecewise equals folding the
/// concatenation.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // The reference generator seeded with 0 (its state advances by
        // the additive constant each step): first two outputs.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
        // FNV-1a 64 test vectors from the reference implementation.
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_folds_piecewise() {
        let whole = fnv1a(FNV1A_OFFSET, b"switch agg-3");
        let split = fnv1a(fnv1a(FNV1A_OFFSET, b"switch "), b"agg-3");
        assert_eq!(whole, split);
    }
}
