//! The client's key chain.
//!
//! The data owner holds one master key; every purpose-specific key (block
//! encryption, tag cipher, OPE per attribute, decoy generation) is derived
//! from it with the PRF, so the client state is a single 32-byte secret.

use crate::ope::OpeKey;
use crate::prf::Prf;
use crate::vernam::TagCipher;

/// Derives all per-purpose keys from a master key.
#[derive(Debug, Clone)]
pub struct KeyChain {
    master: Prf,
    master_key: [u8; 32],
}

impl KeyChain {
    pub fn new(master_key: [u8; 32]) -> Self {
        Self {
            master: Prf::new(master_key),
            master_key,
        }
    }

    /// The raw master key — everything else derives from it. Only the
    /// owner-side persistence layer should touch this.
    pub fn master_key(&self) -> [u8; 32] {
        self.master_key
    }

    /// Convenience: build from a seed integer (tests, examples, benches).
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
        Self::new(key)
    }

    /// Key for sealing encryption blocks.
    pub fn block_key(&self) -> [u8; 32] {
        self.master.derive_key("exq:block")
    }

    /// The deterministic tag cipher for DSI-table tags and query tags.
    pub fn tag_cipher(&self) -> TagCipher {
        TagCipher::new(self.master.derive_key("exq:tag"))
    }

    /// Per-attribute OPE key for the value index.
    pub fn ope_key(&self, attribute: &str) -> OpeKey {
        OpeKey::new(self.master.derive_key(&format!("exq:ope:{attribute}")))
    }

    /// Deterministic per-context nonce (e.g. per block id) for sealing.
    pub fn nonce(&self, context: &str, n: u64) -> [u8; 12] {
        let mut out = [0u8; 12];
        self.master
            .fill(format!("exq:nonce:{context}:{n}").as_bytes(), &mut out);
        out
    }

    /// The nonce of a block sealed after set-up: a PRF of its id and its
    /// plaintext. Two different blocks never share one, whatever slot or id
    /// they were prepared for, and sealing one block again (a retried
    /// insert, a WAL replay) gives it the same nonce and the same bytes.
    pub fn insert_nonce(&self, id: u32, plaintext: &[u8]) -> [u8; 12] {
        let mut out = [0u8; 12];
        let input = [
            b"exq:nonce:block-insert".as_slice(),
            &id.to_le_bytes(),
            plaintext,
        ];
        self.master.fill(&input.concat(), &mut out);
        out
    }

    /// PRF for decoy value synthesis.
    pub fn decoy_prf(&self) -> Prf {
        Prf::new(self.master.derive_key("exq:decoy"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivations_are_deterministic() {
        let a = KeyChain::from_seed(9);
        let b = KeyChain::from_seed(9);
        assert_eq!(a.block_key(), b.block_key());
        assert_eq!(a.nonce("blk", 4), b.nonce("blk", 4));
        assert_eq!(a.tag_cipher().encrypt("SSN"), b.tag_cipher().encrypt("SSN"));
        assert_eq!(a.ope_key("age").encrypt(5), b.ope_key("age").encrypt(5));
    }

    #[test]
    fn purposes_are_separated() {
        let k = KeyChain::from_seed(9);
        assert_ne!(k.block_key(), k.master.derive_key("exq:tag"));
        // Mid-domain: near either end of the domain the function tends to
        // map a value to itself whatever the key.
        let x = 0x5eed_1234_5678_9abc;
        assert_ne!(k.ope_key("age").encrypt(x), k.ope_key("income").encrypt(x));
        assert_ne!(k.nonce("blk", 1), k.nonce("blk", 2));
        assert_ne!(k.nonce("a", 1), k.nonce("b", 1));
    }

    #[test]
    fn seeds_are_separated() {
        let a = KeyChain::from_seed(1);
        let b = KeyChain::from_seed(2);
        assert_ne!(a.block_key(), b.block_key());
    }
}
