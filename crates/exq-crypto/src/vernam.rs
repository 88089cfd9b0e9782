//! The deterministic tag cipher (§5.1.1).
//!
//! The paper encrypts element tags in the DSI index table with a "one-time
//! pad (Vernam cipher)", and translates query tags with *the same keys* so
//! the server can look encrypted tags up in the table. Determinism is
//! therefore a functional requirement: the same tag must always map to the
//! same ciphertext — which already rules out a true one-time pad (the pad
//! would be reused). We realize the same functional contract as a
//! fixed-width keyed PRF of the tag, rendered in a compact alphanumeric
//! alphabet so ciphertext tags look like the paper's `U84573`. Fixed width
//! buys two properties a XOR-pad scheme lacks: collision resistance across
//! different tags (found by a property test against an earlier pad-based
//! version: independent pads collide on short tags with birthday
//! probability) and tag-length hiding.

use crate::prf::Prf;

/// Alphabet for rendering ciphertext tags (XML-name safe, no vowels beyond
/// `U` to avoid accidentally spelling real words).
const ALPHABET: &[u8; 32] = b"0123456789BCDFGHJKLMNPQRSTUVWXYZ";

/// Deterministic tag encryption/decryption.
#[derive(Debug, Clone)]
pub struct TagCipher {
    prf: Prf,
}

impl TagCipher {
    pub fn new(key: [u8; 32]) -> Self {
        Self { prf: Prf::new(key) }
    }

    /// Encrypts a tag into a fixed-width, XML-name-safe ciphertext string
    /// starting with `X` (so it can never collide with a plaintext
    /// digit-initial name and remains a valid XML name). The width is
    /// constant — 128 PRF bits in base-32 — so ciphertext tags reveal
    /// nothing about plaintext tag lengths and never collide in practice.
    pub fn encrypt(&self, tag: &str) -> String {
        let mut mac = [0u8; 16];
        self.prf
            .fill(&[b"tagenc:", tag.as_bytes()].concat(), &mut mac);
        let mut out = String::with_capacity(27);
        out.push('X');
        // 16 bytes → 26 base-32 characters (5 bits each, final char 3 bits).
        let mut acc: u32 = 0;
        let mut bits = 0u32;
        for &b in &mac {
            acc = (acc << 8) | b as u32;
            bits += 8;
            while bits >= 5 {
                bits -= 5;
                out.push(ALPHABET[((acc >> bits) & 31) as usize] as char);
            }
        }
        if bits > 0 {
            out.push(ALPHABET[((acc << (5 - bits)) & 31) as usize] as char);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> TagCipher {
        TagCipher::new([42u8; 32])
    }

    #[test]
    fn deterministic() {
        let c = cipher();
        assert_eq!(c.encrypt("SSN"), c.encrypt("SSN"));
    }

    #[test]
    fn distinct_tags_distinct_ciphertexts() {
        let c = cipher();
        assert_ne!(c.encrypt("SSN"), c.encrypt("SSM"));
        assert_ne!(c.encrypt("a"), c.encrypt("b"));
        assert_ne!(c.encrypt("insurance"), c.encrypt("insuranc"));
    }

    #[test]
    fn key_dependence() {
        let a = TagCipher::new([1u8; 32]);
        let b = TagCipher::new([2u8; 32]);
        assert_ne!(a.encrypt("SSN"), b.encrypt("SSN"));
    }

    #[test]
    fn ciphertext_is_valid_xml_name() {
        let c = cipher();
        for tag in ["SSN", "insurance", "policy#", "a-b_c.d", "coverage"] {
            let e = c.encrypt(tag);
            assert!(e.chars().next().unwrap().is_ascii_alphabetic());
            assert!(e.chars().all(|ch| ch.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn ciphertext_width_hides_tag_length() {
        let c = cipher();
        assert_eq!(c.encrypt("a").len(), c.encrypt("averylongtagname").len());
    }

    /// Regression for the property-test finding: short distinct tags must
    /// not collide under any key.
    #[test]
    fn short_tags_never_collide() {
        for seed in 0..50u8 {
            let c = TagCipher::new([seed; 32]);
            let mut seen = std::collections::HashSet::new();
            for b in b'a'..=b'z' {
                assert!(seen.insert(c.encrypt(&(b as char).to_string())));
            }
        }
    }

    #[test]
    fn no_collisions_over_vocabulary() {
        let c = cipher();
        let tags = [
            "hospital",
            "patient",
            "pname",
            "SSN",
            "age",
            "treat",
            "disease",
            "doctor",
            "insurance",
            "policy",
            "coverage",
            "site",
            "person",
            "name",
            "creditcard",
            "profile",
            "income",
            "address",
            "emailaddress",
            "dataset",
            "title",
            "author",
            "initial",
            "last",
            "publisher",
            "date",
            "city",
        ];
        let mut seen = std::collections::HashSet::new();
        for t in tags {
            assert!(seen.insert(c.encrypt(t)), "collision for {t}");
        }
    }
}
