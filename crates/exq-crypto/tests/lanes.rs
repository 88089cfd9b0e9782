//! The batch entry points against the one-at-a-time functions they must
//! equal byte for byte: `open_blocks` / `seal_blocks` against `open_block` /
//! `seal_block`, `OpeKey::encrypt_many` against `OpeKey::encrypt`.

use exq_crypto::{
    open_block, open_blocks, seal_block, seal_blocks, BlockCryptError, OpeKey, SealedBlock,
    SealedBlocks,
};
use proptest::prelude::*;

/// Plaintext lengths on both sides of every boundary the batch path cares
/// about: empty, the 12-byte absorb chunk, the 64-byte keystream block, the
/// length past which a lone long block leaves the lanes, and a few blocks
/// long enough to fall in the sort's last bucket.
fn plaintext_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..30,
        Just(11),
        Just(12),
        Just(13),
        Just(63),
        Just(64),
        Just(65),
        40usize..140,
        250usize..1100,
        3000usize..3400,
    ]
}

fn plaintext() -> impl Strategy<Value = Vec<u8>> {
    (plaintext_len(), any::<u64>()).prop_map(|(len, seed)| {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    })
}

/// Block sets of 0, 1, 15 and 17 blocks (and whatever else): not multiples
/// of the lane count.
fn plaintexts() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop_oneof![
        proptest::collection::vec(plaintext(), 0..2),
        proptest::collection::vec(plaintext(), 15..18),
        proptest::collection::vec(plaintext(), 0..50),
    ]
}

/// What OPESS hands the OPE: 2–130 values, repeats likely, inside a
/// window of 2^8–2^48 above a random base, in no order. Uniform values part
/// at the root; these share every node above their window.
fn cluster() -> impl Strategy<Value = Vec<u64>> {
    let offsets = proptest::collection::vec(any::<u64>(), 2..=130);
    (any::<u64>(), 8u32..=48, offsets).prop_map(|(base, bits, offsets)| {
        let base = base.min(u64::MAX - ((1 << bits) - 1));
        offsets.iter().map(|o| base + o % (1 << bits)).collect()
    })
}

fn nonce_of(i: usize, salt: u8) -> [u8; 12] {
    core::array::from_fn(|b| (i as u8).wrapping_mul(31) ^ salt.wrapping_add(b as u8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sealing a batch makes the blocks sealing one by one makes, and
    /// opening a batch gives the plaintexts opening one by one gives.
    #[test]
    fn batch_is_one_by_one(key in any::<[u8; 32]>(), salt in any::<u8>(), pts in plaintexts()) {
        let items: Vec<(u32, [u8; 12], &[u8])> = pts
            .iter()
            .enumerate()
            .map(|(i, pt)| (i as u32 * 3 + 1, nonce_of(i, salt), pt.as_slice()))
            .collect();
        let one_by_one: Vec<SealedBlock> = items
            .iter()
            .map(|&(id, nonce, pt)| seal_block(&key, id, nonce, pt))
            .collect();
        let batch = seal_blocks(&key, &items);
        prop_assert_eq!(&batch, &one_by_one);

        // What the client holds: the blocks as one table.
        let table: SealedBlocks = batch.iter().collect();
        let opened = open_blocks(&key, &table).unwrap();
        prop_assert_eq!(opened.len(), pts.len());
        prop_assert_eq!(opened.is_empty(), pts.is_empty());
        for (i, b) in batch.iter().enumerate() {
            prop_assert_eq!(opened.get(i).to_vec(), open_block(&key, b).unwrap());
            prop_assert_eq!(opened.get(i), pts[i].as_slice());
            prop_assert_eq!(table.get(i), Some(b.into()));
        }
        prop_assert_eq!(opened.iter().count(), pts.len());
        prop_assert_eq!(opened.as_bytes().to_vec(), pts.concat());
    }

    /// One flipped ciphertext bit or tag bit anywhere in a batch is reported
    /// for that block; with two bad blocks the earlier one is named.
    #[test]
    fn a_tampered_block_is_named(
        key in any::<[u8; 32]>(),
        pts in proptest::collection::vec(plaintext(), 1..40),
        at in any::<(usize, usize)>(),
        flip in any::<(usize, u8)>(),
        in_tag in any::<bool>(),
    ) {
        let items: Vec<(u32, [u8; 12], &[u8])> = pts
            .iter()
            .enumerate()
            .map(|(i, pt)| (i as u32, nonce_of(i, 9), pt.as_slice()))
            .collect();
        let good = seal_blocks(&key, &items);
        let tamper = |b: &mut SealedBlock| {
            let bit = 1u8 << (flip.1 % 8);
            if in_tag || b.ciphertext.is_empty() {
                b.tag[flip.0 % 16] ^= bit;
            } else {
                let i = flip.0 % b.ciphertext.len();
                b.ciphertext[i] ^= bit;
            }
        };
        let (first, second) = (at.0 % good.len(), at.1 % good.len());
        let mut bad = good.clone();
        tamper(&mut bad[first]);
        prop_assert_eq!(open_block(&key, &bad[first]), Err(BlockCryptError::BadTag));
        let first_bad = |blocks: &[SealedBlock]| open_blocks(&key, &blocks.iter().collect()).err();
        prop_assert_eq!(first_bad(&bad), Some((first, BlockCryptError::BadTag)));
        if second != first {
            tamper(&mut bad[second]);
            prop_assert_eq!(
                first_bad(&bad),
                Some((first.min(second), BlockCryptError::BadTag))
            );
        }
        prop_assert_eq!(first_bad(&good), None);
    }

    /// `encrypt_many` is `encrypt` mapped, whatever the count, with the
    /// domain's ends and repeated values in the batch, and with clusters
    /// whose values share the tree down to deep nodes.
    #[test]
    fn ope_many_is_one_by_one(
        key in any::<[u8; 32]>(),
        mut xs in proptest::collection::vec(any::<u64>(), 0..40),
        clusters in proptest::collection::vec(cluster(), 0..3),
        dup in any::<usize>(),
    ) {
        xs.extend(clusters.into_iter().flatten());
        xs.extend([0, u64::MAX]);
        let n = xs.len();
        xs.push(xs[dup % n]);
        xs.rotate_left(dup % n);
        let k = OpeKey::new(key);
        let expected: Vec<u128> = xs.iter().map(|&x| k.encrypt(x)).collect();
        prop_assert_eq!(k.encrypt_many(&xs), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sorted batch cut into runs anywhere (the owner's set-up descends
    /// runs on several threads) encrypts to the one batch's ciphertexts,
    /// concatenated: runs that part inside a shared node draw its coin
    /// again and get the same coin.
    #[test]
    fn ope_many_over_cuts_is_one_batch(
        key in any::<[u8; 32]>(),
        clusters in proptest::collection::vec(cluster(), 1..3),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut xs: Vec<u64> = clusters.into_iter().flatten().collect();
        xs.sort_unstable();
        let k = OpeKey::new(key);
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (xs.len() + 1)).collect();
        at.extend([0, xs.len()]);
        at.sort_unstable();
        let cut: Vec<u128> = at
            .windows(2)
            .flat_map(|w| k.encrypt_many(&xs[w[0]..w[1]]))
            .collect();
        prop_assert_eq!(cut, k.encrypt_many(&xs));
    }
}

/// Every plaintext length from 0 to 130 in one table, so the lane groups
/// hold every mix of whole and part Poly1305 and keystream blocks, and the
/// table's 131 blocks leave a last group of three: below the lane
/// threshold and the interleave width. Prefixes of the table give the
/// small counts.
#[test]
fn every_length_to_130_is_one_by_one() {
    let key = [21u8; 32];
    let pts: Vec<Vec<u8>> = (0..=130usize)
        .map(|n| (0..n).map(|i| (i * 13 + n) as u8).collect())
        .collect();
    let items: Vec<(u32, [u8; 12], &[u8])> = pts
        .iter()
        .enumerate()
        .map(|(i, pt)| (i as u32 * 5, nonce_of(i, 3), pt.as_slice()))
        .collect();
    for n in [0, 1, 2, 3, 4, 5, 15, 16, 17, 35, items.len()] {
        let one_by_one: Vec<SealedBlock> = items[..n]
            .iter()
            .map(|&(id, nonce, pt)| seal_block(&key, id, nonce, pt))
            .collect();
        assert_eq!(seal_blocks(&key, &items[..n]), one_by_one, "{n} blocks");
        let table: SealedBlocks = one_by_one.iter().collect();
        let opened = open_blocks(&key, &table).unwrap();
        for (i, b) in one_by_one.iter().enumerate() {
            let one = open_block(&key, b).unwrap();
            assert_eq!(opened.get(i), one, "{n} blocks, block {i}");
        }
    }
}

/// A forged tag at every position of one sixteen-block lane group is
/// refused with that position: the blocks are of one length, so the table
/// is one group, run as four interleaved Poly1305 runs of four.
#[test]
fn a_forged_tag_anywhere_in_a_lane_group_is_named() {
    let key = [22u8; 32];
    let pts: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 50]).collect();
    let items: Vec<(u32, [u8; 12], &[u8])> = pts
        .iter()
        .enumerate()
        .map(|(i, pt)| (i as u32, nonce_of(i, 5), pt.as_slice()))
        .collect();
    let good = seal_blocks(&key, &items);
    assert!(open_blocks(&key, &good.iter().collect()).is_ok());
    for at in 0..good.len() {
        for byte in [0, 15] {
            let mut forged = good.clone();
            forged[at].tag[byte] ^= 1;
            assert_eq!(
                open_blocks(&key, &forged.iter().collect()).err(),
                Some((at, BlockCryptError::BadTag)),
                "tag byte {byte} of block {at}"
            );
        }
    }
}

/// The counts the lane grouping could get wrong, exhaustively small.
#[test]
fn ope_many_at_every_small_count() {
    let k = OpeKey::new([13u8; 32]);
    let xs: Vec<u64> = (0..35u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for n in 0..=xs.len() {
        let expected: Vec<u128> = xs[..n].iter().map(|&x| k.encrypt(x)).collect();
        assert_eq!(k.encrypt_many(&xs[..n]), expected, "{n} values");
    }
    assert_eq!(
        k.encrypt_many(&[7; 20]),
        vec![k.encrypt(7); 20],
        "all duplicates"
    );
}
