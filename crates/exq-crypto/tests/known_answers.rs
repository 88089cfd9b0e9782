//! Known answers for the order-preserving function and the block tag under
//! fixed keys.
//!
//! The batch paths are checked against `OpeKey::encrypt` and `seal_block`
//! elsewhere; these pin the one-at-a-time functions themselves. A change to
//! the coin derivation, the range split or the tag that moved every output
//! consistently would pass every comparison test and every golden reply,
//! yet no saved store would match its client any more.
//!
//! `ope_reference.py` beside this file recomputes every OPE constant here
//! from the function's definition, with another ChaCha20 implementation;
//! `block_reference.py` recomputes every block tag with Python
//! `cryptography`'s RFC 8439 `ChaCha20Poly1305` (`--check` compares them
//! with the table below).

use exq_crypto::{open_block, seal_block, OpeKey, OpessPlan, RangeOp, ValueRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY: [u8; 32] = *b"exq known-answer key for the OPE";

/// The first chunk of 37.0 in [`plan`]: the value's ordered-`u64` image
/// (`0xc042_8000_0000_0000`) displaced into the gap to the next value.
const DISPLACED: u64 = 0xc042_822d_1315_f281;

/// A small histogram whose middle value splits into several chunks.
fn plan() -> OpessPlan {
    let mut rng = StdRng::seed_from_u64(2006);
    OpessPlan::build(
        &[(36.5, 4), (37.0, 9), (41.5, 1)],
        OpeKey::new(KEY),
        &mut rng,
    )
    .unwrap()
}

#[test]
fn ope_encrypt_known_answers() {
    let key = OpeKey::new(KEY);
    for (x, c) in [
        (0, 0x0),
        (1, 0x1),
        (DISPLACED, 0x938a_2ebd_1d95_965b_4026_3acb),
        (u64::MAX, 0xffff_ffff_ffff_ffff_ffff_fbd1),
    ] {
        assert_eq!(key.encrypt(x), c, "E({x:#x})");
    }
}

#[test]
fn opess_equality_band_known_answer() {
    assert_eq!(
        plan().translate(RangeOp::Eq, 37.0),
        ValueRange {
            lo: 0x938a_2ebd_1d95_965b_4026_3acb,
            hi: 0x938a_2ebd_648a_4aaa_dec4_8574,
        }
    );
}

/// The block key of the tag known answers.
const BLOCK_KEY: [u8; 32] = *b"exq known-answer key, block tags";

/// `(id, plaintext length, tag)`: the tag `seal_block` gives the
/// [`block_plaintext`] of that length under [`BLOCK_KEY`] and the id's
/// [`block_nonce`], in hex. Empty, one byte, a whole Poly1305 block, the
/// ≈ 50 bytes of a typical block, a whole and a part keystream block past
/// it, and a long one; each under a small id and one with its high bit set.
#[rustfmt::skip]
const BLOCK_TAGS: &[(u32, usize, &str)] = &[
    (0x7, 0, "fb2102f72947c382c67883daee9f9109"),
    (0x7, 1, "5fc54999db36941487bde134308a8541"),
    (0x7, 16, "02bb9e0348bcb3564d19a8323bbd2cab"),
    (0x7, 50, "066ecaef7271e90ea63137d9dfd1ce5d"),
    (0x7, 64, "582bc8e1295a8d931d5789e934765615"),
    (0x7, 65, "4ef4ee74b35a2cfb1ba907ae1a38d3b1"),
    (0x7, 200, "35e26b21337e7ba03877a10b32672553"),
    (0xfedc_ba98, 0, "9df0869de4a20970279b80f21215543d"),
    (0xfedc_ba98, 1, "cb6df2a67e73ebee8e6a5613e0e19af6"),
    (0xfedc_ba98, 16, "16aead20a4bcf318c1c0dea5237cf56d"),
    (0xfedc_ba98, 50, "680559d715110777eafec6a40d0f30c2"),
    (0xfedc_ba98, 64, "413a25a4048f6d9514dcc723020cac7b"),
    (0xfedc_ba98, 65, "3c6cccfd0c71ef0a85e6c80f455bf2a6"),
    (0xfedc_ba98, 200, "72e175398fb24333b98b9a79edfababf"),
];

/// Byte `i` of a known-answer plaintext is `(31 i + 7) mod 256`.
fn block_plaintext(len: usize) -> Vec<u8> {
    (0..len).map(|i| (31 * i + 7) as u8).collect()
}

/// The id and the length as four little-endian bytes each, then `"tag!"`.
fn block_nonce(id: u32, len: usize) -> [u8; 12] {
    let mut nonce = *b"\0\0\0\0\0\0\0\0tag!";
    nonce[..4].copy_from_slice(&id.to_le_bytes());
    nonce[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    nonce
}

#[test]
fn block_tag_known_answers() {
    for &(id, len, want) in BLOCK_TAGS {
        let plaintext = block_plaintext(len);
        let block = seal_block(&BLOCK_KEY, id, block_nonce(id, len), &plaintext);
        let tag: String = block.tag.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(tag, want, "id {id:#x}, {len} bytes");
        assert_eq!(open_block(&BLOCK_KEY, &block).unwrap(), plaintext);
    }
}
