//! Page-aware access to postings and blocks: the record-id namespace the
//! out-of-core store uses, and the compact interval codec posting lists are
//! stored in.
//!
//! A hosted database's payload lives in an [`exq_store::PagedStore`] as
//! opaque records. This module fixes the id namespace:
//!
//! | record            | id                    |
//! |-------------------|-----------------------|
//! | database metadata | `0`                   |
//! | sealed block *b*  | `(1 << 32) \| b`      |
//! | posting list *k*  | `(2 << 32) \| k`      |
//!
//! and the posting-list encoding: a varint count followed by one
//! `(zigzag-delta lo, varint width)` pair per interval, delta-coded against
//! the previous interval's `lo`. Lists arrive in join order (ascending
//! `lo`, ties broken descending `hi`), so deltas are small and the encoding
//! is typically a few bytes per interval instead of sixteen; the zigzag
//! makes it lossless for *any* order. Decoding preserves order exactly, so
//! a sealed table rehydrates without resorting.

use crate::dsi::Interval;
use exq_store::{PagedStore, StoreError};

/// Record id of the database metadata record.
pub const REC_META: u64 = 0;

/// Record id holding sealed block `b`'s ciphertext record.
pub fn block_record_id(block_id: u32) -> u64 {
    (1u64 << 32) | block_id as u64
}

/// Record id holding posting list `k` (the `k`-th tag in sorted order).
pub fn posting_record_id(k: u32) -> u64 {
    (2u64 << 32) | k as u64
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or("varint: truncated")?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err("varint: overflow".into());
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint: too long".into());
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a posting list. Order-preserving and lossless for any input
/// order; most compact when the list is sorted by `lo`.
pub fn encode_postings<'a>(list: impl ExactSizeIterator<Item = &'a Interval>) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + list.len() * 4);
    push_varint(&mut out, list.len() as u64);
    let mut prev_lo = 0i64;
    for iv in list {
        push_varint(&mut out, zigzag(iv.lo as i64 - prev_lo));
        push_varint(&mut out, iv.hi - iv.lo);
        prev_lo = iv.lo as i64;
    }
    out
}

/// Decodes a posting list, restoring the encoded order exactly.
pub fn decode_postings(bytes: &[u8]) -> Result<Vec<Interval>, String> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)?;
    if count > (bytes.len() as u64).saturating_sub(pos as u64) {
        // Each interval costs at least 2 bytes; an impossible count is
        // corruption, not an allocation request.
        return Err(format!("postings: impossible count {count}"));
    }
    let mut list = Vec::with_capacity(count as usize);
    let mut prev_lo = 0i64;
    for _ in 0..count {
        let lo = prev_lo + unzigzag(read_varint(bytes, &mut pos)?);
        let width = read_varint(bytes, &mut pos)?;
        if lo < 0 || width == 0 {
            return Err(format!(
                "postings: invalid interval (lo {lo}, width {width})"
            ));
        }
        prev_lo = lo;
        list.push(Interval {
            lo: lo as u64,
            hi: lo as u64 + width,
        });
    }
    if pos != bytes.len() {
        return Err("postings: trailing bytes".into());
    }
    Ok(list)
}

/// Loads and decodes posting list `k` from a store, pinning its pages
/// through the buffer pool.
pub fn load_postings(store: &PagedStore, k: u32) -> Result<Vec<Interval>, StoreError> {
    let raw = store.get(posting_record_id(k))?;
    decode_postings(&raw).map_err(|e| StoreError::Corrupt(format!("posting list {k}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn record_id_namespaces_are_disjoint() {
        assert_ne!(REC_META, block_record_id(0));
        assert_ne!(block_record_id(0), posting_record_id(0));
        assert_ne!(block_record_id(u32::MAX), posting_record_id(0));
        assert_eq!(block_record_id(7) & 0xFFFF_FFFF, 7);
    }

    #[test]
    fn roundtrip_simple() {
        let list = vec![iv(10, 90), iv(10, 20), iv(50, 60)];
        let enc = encode_postings(list.iter());
        assert_eq!(decode_postings(&enc).unwrap(), list);
        assert!(enc.len() < 16 * list.len(), "delta coding should shrink");
        assert_eq!(
            decode_postings(&encode_postings([].iter())).unwrap(),
            vec![]
        );
    }

    #[test]
    fn roundtrip_randomized() {
        let mut rng = StdRng::seed_from_u64(0x9A6ED);
        for _ in 0..200 {
            let n = rng.gen_range(0..64);
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = rng.gen_range(0..1u64 << 40);
                let width = rng.gen_range(1..1u64 << 20);
                list.push(iv(lo, lo + width));
            }
            // Unsorted input (zigzag handles descending deltas too).
            let enc = encode_postings(list.iter());
            assert_eq!(decode_postings(&enc).unwrap(), list);
        }
    }

    #[test]
    fn corrupt_encodings_are_errors_not_garbage() {
        let list = [iv(5, 9), iv(7, 30)];
        let enc = encode_postings(list.iter());
        // Truncation at every boundary.
        for cut in 0..enc.len() {
            assert!(decode_postings(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_postings(&padded).is_err());
        // Absurd count.
        let mut absurd = Vec::new();
        push_varint(&mut absurd, u64::MAX);
        assert!(decode_postings(&absurd).is_err());
    }

    #[test]
    fn load_postings_via_store() {
        let dir = std::env::temp_dir().join(format!("exq-index-paged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = PagedStore::create(
            &dir,
            exq_store::StoreOptions {
                page_size: exq_store::MIN_PAGE_SIZE,
                cache_bytes: 4 * exq_store::MIN_PAGE_SIZE,
            },
        )
        .unwrap();
        // A list long enough to span several tiny pages.
        let list: Vec<Interval> = (0..500u64).map(|i| iv(i * 7, i * 7 + 3)).collect();
        store
            .checkpoint(
                &[(posting_record_id(3), Some(encode_postings(list.iter())))],
                0,
            )
            .unwrap();
        assert_eq!(load_postings(&store, 3).unwrap(), list);
        assert!(load_postings(&store, 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
