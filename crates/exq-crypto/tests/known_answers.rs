//! Known answers for the order-preserving function under a fixed key.
//!
//! The batch path is checked against `OpeKey::encrypt` elsewhere; these pin
//! `encrypt` itself. A change to the coin derivation or the range split
//! that moved every ciphertext consistently would pass every comparison
//! test and every golden reply, yet no saved store's value index would
//! match its client any more.
//!
//! `ope_reference.py` beside this file recomputes every constant here from
//! the function's definition, with another ChaCha20 implementation.

use exq_crypto::{OpeKey, OpessPlan, RangeOp, ValueRange};
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
