//! Stable value hashing shared by the randomized sketches.
//!
//! Sketch hashes must be stable across processes and runs — summaries built
//! on different workers merge by hash (bottom-k, HLL), and the redo log
//! replays queries after failures expecting identical results (paper §5.8).
//! So hashing is explicit FNV-1a over a canonical byte encoding rather than
//! the (potentially process-seeded) standard hasher.

use hillview_columnar::{Value, FNV_OFFSET};

/// FNV-1a over raw bytes, from the offset basis: the workspace's one
/// FNV-1a ([`hillview_columnar::fnv1a`]).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    hillview_columnar::fnv1a(FNV_OFFSET, bytes)
}

/// Finalizing mix (splitmix64) to spread FNV's weak high bits.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Stable 64-bit hash of a string, optionally seeded.
#[inline]
pub fn hash_str(s: &str, seed: u64) -> u64 {
    mix(fnv1a(s.as_bytes()) ^ seed)
}

/// Stable 64-bit hash of a cell value, optionally seeded. Values that
/// compare equal hash equally (Int 2 ≠ Double 2.0 *do* compare equal in the
/// Value order, but never co-occur within one column, which is the only
/// place sketch hashing is applied).
#[inline]
pub fn hash_value(v: &Value, seed: u64) -> u64 {
    let h = match v {
        Value::Missing => fnv1a(&[0xFF]),
        Value::Int(x) => fnv1a(&x.to_le_bytes()) ^ 0x01,
        Value::Double(x) => fnv1a(&x.to_bits().to_le_bytes()) ^ 0x02,
        Value::Date(x) => fnv1a(&x.to_le_bytes()) ^ 0x03,
        Value::Str(s) => fnv1a(s.as_bytes()) ^ 0x04,
    };
    mix(h ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_constants() {
        // Regression pin: these exact values must never change, or merged
        // sketches from "different processes" would disagree.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"hillview"), fnv1a(b"hillview"));
        assert_eq!(hash_str("SFO", 0), hash_str("SFO", 0));
    }

    #[test]
    fn hashes_match_known_answers() {
        // Known answers: FNV-1a 64 of "a" and "foobar" are the published
        // test vectors; the rest pin the exact outputs bottom-k and HLL
        // merge by, across processes and releases.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(hash_str("SFO", 0), 0xec2b_dcb7_11fb_3d2c);
        assert_eq!(hash_str("SFO", 7), 0x9969_d716_1ec7_25c2);
        assert_eq!(hash_value(&Value::Missing, 0), 0x01df_27c8_adb0_f2d1);
        assert_eq!(hash_value(&Value::Int(-3), 0), 0x0089_ac94_9db6_c5b8);
        assert_eq!(hash_value(&Value::Double(2.5), 0), 0x7474_f601_1b39_8ac4);
        assert_eq!(hash_value(&Value::Date(19_000), 0), 0x4c4e_3a26_4a29_549c);
        assert_eq!(
            hash_value(&Value::Str("SFO".into()), 9),
            0xba9f_ddf9_4897_b288
        );
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(hash_str("SFO", 1), hash_str("SFO", 2));
        assert_ne!(hash_value(&Value::Int(5), 1), hash_value(&Value::Int(5), 2));
    }

    #[test]
    fn distinct_values_rarely_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000i64 {
            seen.insert(hash_value(&Value::Int(i), 0));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn value_types_are_domain_separated() {
        assert_ne!(
            hash_value(&Value::Int(7), 0),
            hash_value(&Value::Date(7), 0)
        );
        assert_ne!(
            hash_value(&Value::Missing, 0),
            hash_value(&Value::Int(0), 0)
        );
    }

    #[test]
    fn mix_is_bijective_spot_check() {
        // splitmix64 finalizer is a bijection; different inputs → different
        // outputs on a sample.
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0u64..1000).map(mix).collect();
        assert_eq!(outs.len(), 1000);
    }
}
