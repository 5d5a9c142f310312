//! Shared utilities for the `kcb` workspace.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! deterministic random-number generator used by every other crate (so that
//! experiment runs are bit-reproducible across platforms), the workspace-wide
//! error type, and small text-formatting helpers used by report writers.

pub mod bin;
pub mod error;
pub mod fmt;
pub mod json;
pub mod mmap;
pub mod pool;
pub mod rng;
pub mod signal;
pub mod simd;

pub use error::{Error, Result};
pub use rng::Rng;

/// FNV-1a 64-bit offset basis: the state [`fnv1a_step`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One streaming FNV-1a 64-bit step: folds `bytes` into the running hash
/// `h` (start from [`FNV_OFFSET`]). Folding `a` then `b` equals hashing
/// `a ++ b`, so checksums can be built incrementally.
#[inline]
pub fn fnv1a_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash — the workspace's standard content hash for seeding
/// deterministic per-item RNG streams (oracle beliefs, OOV vectors, triple
/// keys) and for checksums. One shared implementation keeps every stream
/// definition in sync.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

/// [`fnv1a`] as 16 lowercase hex digits — the digest format of run
/// manifests, journals and config digests.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// FNV-1a over a sequence of `u64` words (mixes each word as 8 LE bytes).
pub fn fnv1a_u64s(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, w| fnv1a_step(h, &w.to_le_bytes()))
}

#[cfg(test)]
mod hash_tests {
    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(super::fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(super::fnv64_hex(b""), "cbf29ce484222325");
        assert_eq!(super::fnv64_hex(b"kcb"), super::fnv64_hex(b"kcb"));
        assert_ne!(super::fnv64_hex(b"kcb"), super::fnv64_hex(b"kcc"));
        // Streaming: folding the pieces equals hashing the concatenation.
        let h = super::fnv1a_step(super::fnv1a_step(super::FNV_OFFSET, b"k"), b"cb");
        assert_eq!(h, super::fnv1a(b"kcb"));
        assert_eq!(super::fnv1a_step(super::FNV_OFFSET, b""), super::FNV_OFFSET);
    }

    #[test]
    fn fnv1a_u64s_differs_by_order() {
        assert_ne!(super::fnv1a_u64s(&[1, 2]), super::fnv1a_u64s(&[2, 1]));
    }
}
