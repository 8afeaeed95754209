//! Content fingerprints for incident dedup.
//!
//! A storm is thousands of firings that are *almost* the same text: the
//! same alert template stamped with different timestamps, counters, and
//! case. The fingerprint must collide for those and separate genuinely
//! different incidents, so it hashes a *normalized token stream* — not
//! the raw bytes:
//!
//! * ASCII-lowercased, split on every non-alphanumeric byte;
//! * single-character tokens dropped (they are template punctuation and
//!   sequence-number debris, not content);
//! * pure-digit tokens dropped (timestamps, counters, retry ordinals —
//!   the parts that differ between firings of the same alert).
//!
//! Tokens feed FNV-1a with a separator byte (so token *boundaries*
//! matter: `["ab","c"]` ≠ `["a","bc"]`), the source string is mixed in
//! the same way, and the result goes through the splitmix64 finalizer —
//! the same stable, process-independent hashing idiom `featcache` and
//! `serve::fleet` use. No per-process seeding: two servers agree on
//! every fingerprint.

use obs::hash::{fnv1a, splitmix64, FNV1A_OFFSET};

/// A token-boundary separator outside the normalized alphabet.
const SEP: u8 = 0x1f;

/// Is this token alert *content* (kept) or firing debris (dropped)?
fn keep_token(token: &[u8]) -> bool {
    token.len() >= 2 && !token.iter().all(|b| b.is_ascii_digit())
}

/// The normalized token stream of `text`, materialized. The fingerprint
/// itself never allocates this; it exists for tests and for callers that
/// want to inspect what two colliding incidents had in common.
pub fn normalize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = Vec::new();
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() {
            current.push(b.to_ascii_lowercase());
        } else if !current.is_empty() {
            if keep_token(&current) {
                tokens.push(String::from_utf8(std::mem::take(&mut current)).unwrap());
            } else {
                current.clear();
            }
        }
    }
    if keep_token(&current) {
        tokens.push(String::from_utf8(current).unwrap());
    }
    tokens
}

/// Fingerprint of `(text, source)`: stable across processes, equal
/// exactly when the normalized token streams and sources are equal.
pub fn fingerprint(text: &str, source: &str) -> u64 {
    let mut h = FNV1A_OFFSET;
    // Stream the normalized tokens straight into the hash — one pass, no
    // token buffer: FNV-1a folds byte by byte, so each token is folded
    // speculatively into `t` and committed (with its separator) only
    // once its end shows it was content.
    let (mut t, mut len, mut all_digits) = (h, 0usize, true);
    for &b in text.as_bytes().iter().chain(b" ") {
        if b.is_ascii_alphanumeric() {
            t = fnv1a(t, &[b.to_ascii_lowercase()]);
            len += 1;
            all_digits &= b.is_ascii_digit();
        } else {
            if len >= 2 && !all_digits {
                h = fnv1a(t, &[SEP]);
            }
            (t, len, all_digits) = (h, 0, true);
        }
    }
    // Mix the source under a distinct tag byte so ("a", "b") never
    // collides with ("a b", "").
    h = fnv1a(h, &[0x02]);
    for &b in source.as_bytes() {
        h = fnv1a(h, &[b.to_ascii_lowercase()]);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_drops_case_punctuation_and_counters() {
        assert_eq!(
            normalize("Switch AGG-3 down!! (retry 1718231) at 12:04:55"),
            vec!["switch", "agg", "down", "retry", "at"]
        );
    }

    #[test]
    fn equivalent_firings_collide() {
        let a = fingerprint("Switch agg-3 in c1.dc1 CRC errors, retry 17", "netmon");
        let b = fingerprint("SWITCH   agg-3 in c1/dc1 CRC errors; retry 9821", "NetMon");
        assert_eq!(a, b);
    }

    #[test]
    fn different_content_or_source_separates() {
        let base = fingerprint("Switch agg-3 CRC errors", "netmon");
        assert_ne!(base, fingerprint("Switch agg-4x CRC errors", "netmon"));
        assert_ne!(base, fingerprint("Switch agg-3 CRC errors", "syslog"));
    }

    #[test]
    fn token_boundaries_matter() {
        assert_ne!(fingerprint("ab cd", "s"), fingerprint("abcd", "s"));
    }

    #[test]
    fn long_tokens_hash_like_their_normalized_stream() {
        // Exercise the stack-buffer overflow path (> 64-byte token).
        let long = "x".repeat(200);
        let text = format!("alpha {long} beta");
        let fp1 = fingerprint(&text, "s");
        let fp2 = fingerprint(&format!("ALPHA {} BETA", long.to_uppercase()), "s");
        assert_eq!(fp1, fp2);
        assert_ne!(fp1, fingerprint("alpha beta", "s"));
    }
}
