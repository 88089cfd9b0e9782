//! The one binary codec: messages, WAL records and files. [`Enc`] and
//! [`Dec`] are `exq-core`'s only byte writer and reader, and each section
//! that the wire and the files share — an interval, a visible fragment, a
//! table of sealed blocks, block pairs, value entries — has one encoder and
//! one decoder here (`crate::persist` lays the files out). Every
//! client↔server message travels in one frame layout, defined here too.
//!
//! Layout
//! ------
//! Every message travels as one **frame**:
//!
//! ```text
//! +-------+-----+---------+--------+--------+--------+--------+-------+---------+
//! | magic | ver | msgtype | paylen | trace  | req id | crc32  | db id | payload |
//! | "EQ"  | u8  | u8      | u32 LE | u64 LE | u64 LE | u32 LE | 64 B  | paylen  |
//! +-------+-----+---------+--------+--------+--------+--------+-------+---------+
//! ```
//!
//! | field   | purpose |
//! |---------|---------|
//! | magic   | rejects a peer that is not speaking this protocol at all |
//! | ver     | always [`PROTOCOL_VERSION`]; any other byte is [`CodecError::BadVersion`] before a length is trusted |
//! | msgtype | selects the payload decoder: requests `0x01..=0x7F`, replies `0x80..=0xFF` |
//! | paylen  | payload bytes only, capped at [`MAX_FRAME_LEN`] before any allocation |
//! | trace   | query-scoped trace id (0 = untraced) that stitches client and server telemetry spans into one tree |
//! | req id  | client-generated request id (0 = unassigned), echoed by the reply: correlates pipelined replies and lets the server apply a replayed mutation once |
//! | crc32   | CRC-32 over every other byte of the frame, checked before the payload is interpreted, so a bit flipped in transit is a typed [`CodecError::Checksum`] and never a different message |
//! | db id   | one length byte + up to [`MAX_DB_ID_LEN`] name bytes, zero-padded: the database the frame addresses on a multi-tenant server (length 0 = the default db); fixed-width so frame length never depends on the name |
//!
//! Inside payloads, integers are LEB128 varints (`u128` is fixed 16-byte
//! little-endian), strings and byte arrays are varint-length-prefixed, and
//! enums carry a one-byte tag. Byte offsets that ascend — where each block
//! an `Answer` ships goes in its text, and where each block was cut out of
//! a visible fragment's — are a count, then each one's distance from the
//! one before it. An `Answer` is its text, one offset per block, its
//! sealed blocks as one table in that order, two timings, the cache flag
//! and its spans. The encoding is the *single source of truth*
//! for transmission accounting: `ServerQuery::wire_size`,
//! `InsertDelta::wire_size` and `ServerResponse::payload_bytes` are the
//! length of the frame each travels in ([`frame_len_of`] its encoded
//! payload), not estimates.
//!
//! Robustness: everything here decodes **attacker-supplied** bytes on the
//! server path, so every read is bounds-checked, declared element counts are
//! validated against the bytes actually remaining (no allocation bombs),
//! recursion depth is capped, and structural invariants (`Interval::lo <
//! hi`, anchor in range) are re-validated instead of trusted. Decoding never
//! panics; it returns [`CodecError`].

use crate::error::CoreError;
use crate::telemetry::{Side, SpanRec};
use crate::update::{DeleteOutcome, InsertDelta, InsertionSlot};
use crate::visible::VisibleFragment;
use crate::wire::{SAxis, SPred, SStep, ServerQuery, ServerResponse};
use exq_crypto::block::TAG_BYTES;
use exq_crypto::{SealedBlock, SealedBlocks, SealedRef, ValueRange};
use exq_index::dsi::Interval;
use exq_xpath::{CmpOp, Literal};
use std::time::Duration;

/// The protocol version byte of every frame: the one dialect this system
/// reads or writes.
pub const PROTOCOL_VERSION: u8 = 6;

/// Frame magic: the first two bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"EQ";

/// Fixed frame header length (magic + version + type + payload length).
pub const FRAME_HEADER_LEN: usize = 8;

/// Length of the trace-id field that follows the fixed header.
pub const TRACE_FIELD_LEN: usize = 8;

/// Length of the request-id field that follows the trace id.
pub const REQ_ID_FIELD_LEN: usize = 8;

/// Length of the frame-checksum field that follows the request id.
pub const CHECKSUM_FIELD_LEN: usize = 4;

/// Maximum length of a database id in bytes. Chosen so the db field stays
/// fixed-width (one length byte + this many name bytes).
pub const MAX_DB_ID_LEN: usize = 63;

/// Length of the fixed-width db-id field that follows the checksum: one
/// length byte plus [`MAX_DB_ID_LEN`] name bytes, zero-padded.
pub const DB_ID_FIELD_LEN: usize = 1 + MAX_DB_ID_LEN;

/// Framing bytes between the fixed header and the payload.
pub const FRAME_EXTRA_LEN: usize =
    TRACE_FIELD_LEN + REQ_ID_FIELD_LEN + CHECKSUM_FIELD_LEN + DB_ID_FIELD_LEN;

/// Offset of the checksum field within a frame.
const CRC_POS: usize = FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN;

/// Length of the frame a payload of `payload_len` bytes travels in.
pub const fn frame_len_of(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + FRAME_EXTRA_LEN + payload_len
}

// ------------------------------------------------------------------ crc32 --

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over the concatenation of
/// `parts`. Detects every single-bit and ≤32-bit-burst error, which is what
/// the frame checksum needs: a flipped byte anywhere in a frame must decode
/// to a typed error, never a different message. The kernel is `exq_store`'s.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    parts
        .iter()
        .fold(0, |crc, part| exq_store::crc32_update(crc, part))
}

/// Hard cap on a frame payload; anything larger is rejected before
/// allocation.
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Cap on `SStep`/`SPred` nesting; legitimate translated queries are a
/// handful of levels deep.
pub const MAX_PATTERN_DEPTH: usize = 64;

/// Decoding failure. Every variant is reachable from malformed or malicious
/// input; none of them panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// Frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// Frame version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The frame checksum did not match: the frame was corrupted in
    /// transit (or deliberately, by fault injection).
    Checksum { stored: u32, computed: u32 },
    /// Unknown enum/message tag for the given context.
    BadTag { context: &'static str, tag: u8 },
    /// Declared length exceeds the hard cap.
    Oversize { len: usize, max: usize },
    /// Declared element count cannot fit in the remaining bytes.
    CountOverflow,
    /// Pattern nesting exceeded [`MAX_PATTERN_DEPTH`].
    DepthExceeded,
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// A decoded string was not valid UTF-8.
    Utf8,
    /// A semantic invariant failed after structural decoding.
    Invalid(&'static str),
    /// Payload decoded but bytes were left over.
    TrailingBytes(usize),
    /// The db-id framing field is malformed: oversized length byte,
    /// non-UTF-8 name bytes, or nonzero padding.
    DbId(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            CodecError::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            CodecError::BadTag { context, tag } => write!(f, "unknown {context} tag {tag:#04x}"),
            CodecError::Oversize { len, max } => write!(f, "length {len} exceeds cap {max}"),
            CodecError::CountOverflow => write!(f, "element count exceeds remaining bytes"),
            CodecError::DepthExceeded => write!(f, "pattern nesting exceeds {MAX_PATTERN_DEPTH}"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::Utf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::DbId(what) => write!(f, "malformed db id field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> CoreError {
        CoreError::Codec(e.to_string())
    }
}

// ----------------------------------------------------------------- writer --

/// Payload writer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// LEB128.
    pub(crate) fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub(crate) fn duration(&mut self, d: Duration) {
        // Fixed-width nanoseconds (u64 holds ~584 years): a varint here
        // would make the frame length depend on measured timing jitter,
        // breaking "identical queries produce identical byte counts".
        self.raw(&(d.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
    }
}

// ----------------------------------------------------------------- reader --

/// Bounds-checked payload reader.
#[derive(Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }

    /// LEB128, a byte at a time: ten bytes at most, the tenth holding bit
    /// 63 alone. The loop unrolls and the cursor stays in a register: timed
    /// against a read from the rest of the input with one bounds check, it
    /// was as fast, and twice as fast as gathering a word's seven-bit
    /// groups at once, whose result the next read's position waits on.
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical bits that don't fit in u64.
                if shift == 63 && byte > 1 {
                    return Err(CodecError::VarintOverflow);
                }
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| CodecError::VarintOverflow)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::VarintOverflow)
    }

    pub(crate) fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.array()?)))
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let raw = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(raw);
        Ok(out)
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(CodecError::Truncated);
        }
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::Utf8)
    }

    pub(crate) fn duration(&mut self) -> Result<Duration, CodecError> {
        Ok(Duration::from_nanos(u64::from_le_bytes(self.array()?)))
    }

    /// Reads an element count and proves it can fit in the remaining input
    /// (each element needs at least `min_entry` bytes). This is what stops
    /// a 16-byte frame from declaring a billion-entry vector.
    pub(crate) fn count(&mut self, min_entry: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n.checked_mul(min_entry.max(1))
            .ok_or(CodecError::CountOverflow)?
            > self.remaining()
        {
            return Err(CodecError::CountOverflow);
        }
        Ok(n)
    }

    /// Fails unless the reader consumed every byte.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

// ------------------------------------------------------------------ trait --

/// Types with a wire encoding. `encode`/`decode` operate on bare payloads
/// (no frame header); [`Message`] adds framing on top.
pub trait WireCodec: Sized {
    fn encode_into(&self, enc: &mut Enc);
    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// Encoded payload as a standalone byte string.
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode_into(&mut enc);
        enc.into_bytes()
    }

    /// Exact encoded length in bytes.
    fn encoded_len(&self) -> usize {
        // Simple and always exact; encoding is cheap relative to the crypto
        // and joins around it.
        self.encode().len()
    }

    /// Decodes a standalone payload, requiring full consumption.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let v = Self::decode_from(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

// ------------------------------------------------------------- leaf types --

impl WireCodec for Interval {
    fn encode_into(&self, enc: &mut Enc) {
        enc.varint(self.lo);
        enc.varint(self.hi);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let lo = dec.varint()?;
        let hi = dec.varint()?;
        // Re-establish the labeling invariant instead of trusting the peer;
        // `Interval::new` only debug-asserts it.
        if lo >= hi {
            return Err(CodecError::Invalid("interval lo >= hi"));
        }
        Ok(Interval { lo, hi })
    }
}

impl WireCodec for ValueRange {
    fn encode_into(&self, enc: &mut Enc) {
        enc.u128(self.lo);
        enc.u128(self.hi);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ValueRange {
            lo: dec.u128()?,
            hi: dec.u128()?,
        })
    }
}

impl WireCodec for SAxis {
    fn encode_into(&self, enc: &mut Enc) {
        enc.u8(match self {
            SAxis::Child => 0,
            SAxis::Descendant => 1,
            SAxis::DescendantOrSelf => 2,
            SAxis::Attribute => 3,
        });
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(SAxis::Child),
            1 => Ok(SAxis::Descendant),
            2 => Ok(SAxis::DescendantOrSelf),
            3 => Ok(SAxis::Attribute),
            tag => Err(CodecError::BadTag {
                context: "axis",
                tag,
            }),
        }
    }
}

impl WireCodec for CmpOp {
    fn encode_into(&self, enc: &mut Enc) {
        enc.u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(CmpOp::Eq),
            1 => Ok(CmpOp::Ne),
            2 => Ok(CmpOp::Lt),
            3 => Ok(CmpOp::Le),
            4 => Ok(CmpOp::Gt),
            5 => Ok(CmpOp::Ge),
            tag => Err(CodecError::BadTag {
                context: "cmp-op",
                tag,
            }),
        }
    }
}

impl WireCodec for Literal {
    fn encode_into(&self, enc: &mut Enc) {
        match self {
            Literal::Number(n) => {
                enc.u8(0);
                enc.f64(*n);
            }
            Literal::Str(s) => {
                enc.u8(1);
                enc.str(s);
            }
        }
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(Literal::Number(dec.f64()?)),
            1 => Ok(Literal::Str(dec.str()?)),
            tag => Err(CodecError::BadTag {
                context: "literal",
                tag,
            }),
        }
    }
}

/// Minimum encoded sealed block: id + nonce + empty ciphertext + tag.
const MIN_BLOCK_LEN: usize = 1 + 12 + 1 + TAG_BYTES;

/// Inlined into both callers: as a call per block, the table's encode
/// ran ≈ 15 % slower than the `Vec<SealedBlock>` loop it replaced.
#[inline]
fn encode_sealed(b: SealedRef<'_>, enc: &mut Enc) {
    enc.varint(b.id as u64);
    enc.raw(&b.nonce);
    enc.bytes(b.ciphertext);
    enc.raw(&b.tag);
}

/// One sealed block, its ciphertext borrowed from the payload.
fn decode_sealed<'a>(dec: &mut Dec<'a>) -> Result<SealedRef<'a>, CodecError> {
    Ok(SealedRef {
        id: dec.u32()?,
        nonce: dec.array()?,
        ciphertext: dec.bytes()?,
        tag: dec.array()?,
    })
}

impl WireCodec for SealedBlock {
    fn encode_into(&self, enc: &mut Enc) {
        encode_sealed(self.into(), enc);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(decode_sealed(dec)?.to_block())
    }
}

/// A count, then each block as a [`SealedBlock`] travels: the same bytes
/// as a `Vec<SealedBlock>`.
impl WireCodec for SealedBlocks {
    fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for b in self {
            encode_sealed(b, enc);
        }
    }

    /// Two passes over the blocks: the first reads every block and sums the
    /// ciphertexts, so the table is reserved once, at its exact size, and
    /// only for blocks that are all there; the second copies them in.
    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = dec.count(MIN_BLOCK_LEN)?;
        let mut walk = dec.clone();
        let mut bytes = 0;
        for _ in 0..n {
            walk.u32()?;
            walk.take(12)?;
            bytes += walk.bytes()?.len();
            walk.take(TAG_BYTES)?;
        }
        let mut blocks = SealedBlocks::with_capacity(n, bytes);
        for _ in 0..n {
            blocks.push(decode_sealed(dec)?);
        }
        Ok(blocks)
    }
}

// --------------------------------------------------------- query patterns --

fn encode_steps(steps: &[SStep], enc: &mut Enc) {
    enc.usize(steps.len());
    for s in steps {
        s.axis.encode_into(enc);
        enc.usize(s.tags.len());
        for t in &s.tags {
            enc.str(t);
        }
        enc.usize(s.preds.len());
        for p in &s.preds {
            encode_pred(p, enc);
        }
    }
}

fn encode_pred(pred: &SPred, enc: &mut Enc) {
    match pred {
        SPred::Exists(steps) => {
            enc.u8(0);
            encode_steps(steps, enc);
        }
        SPred::Value { path, range, plain } => {
            enc.u8(1);
            encode_steps(path, enc);
            match range {
                None => enc.u8(0),
                Some((key, r)) => {
                    enc.u8(1);
                    enc.str(key);
                    r.encode_into(enc);
                }
            }
            match plain {
                None => enc.u8(0),
                Some((op, lit)) => {
                    enc.u8(1);
                    op.encode_into(enc);
                    lit.encode_into(enc);
                }
            }
        }
    }
}

fn decode_steps(dec: &mut Dec<'_>, depth: usize) -> Result<Vec<SStep>, CodecError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(CodecError::DepthExceeded);
    }
    // Minimum step: axis byte + two zero counts.
    let n = dec.count(3)?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let axis = SAxis::decode_from(dec)?;
        let n_tags = dec.count(1)?;
        let mut tags = Vec::with_capacity(n_tags);
        for _ in 0..n_tags {
            tags.push(dec.str()?);
        }
        let n_preds = dec.count(2)?;
        let mut preds = Vec::with_capacity(n_preds);
        for _ in 0..n_preds {
            preds.push(decode_pred(dec, depth + 1)?);
        }
        steps.push(SStep { axis, tags, preds });
    }
    Ok(steps)
}

fn decode_pred(dec: &mut Dec<'_>, depth: usize) -> Result<SPred, CodecError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(CodecError::DepthExceeded);
    }
    match dec.u8()? {
        0 => Ok(SPred::Exists(decode_steps(dec, depth + 1)?)),
        1 => {
            let path = decode_steps(dec, depth + 1)?;
            let range = match dec.u8()? {
                0 => None,
                1 => {
                    let key = dec.str()?;
                    Some((key, ValueRange::decode_from(dec)?))
                }
                tag => {
                    return Err(CodecError::BadTag {
                        context: "value-range option",
                        tag,
                    })
                }
            };
            let plain = match dec.u8()? {
                0 => None,
                1 => {
                    let op = CmpOp::decode_from(dec)?;
                    let lit = Literal::decode_from(dec)?;
                    Some((op, lit))
                }
                tag => {
                    return Err(CodecError::BadTag {
                        context: "plain-cmp option",
                        tag,
                    })
                }
            };
            Ok(SPred::Value { path, range, plain })
        }
        tag => Err(CodecError::BadTag {
            context: "predicate",
            tag,
        }),
    }
}

impl WireCodec for ServerQuery {
    fn encode_into(&self, enc: &mut Enc) {
        encode_steps(&self.steps, enc);
        enc.usize(self.anchor);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let steps = decode_steps(dec, 0)?;
        let anchor = dec.usize()?;
        if steps.is_empty() {
            return Err(CodecError::Invalid("query has no steps"));
        }
        if anchor >= steps.len() {
            return Err(CodecError::Invalid("anchor out of range"));
        }
        Ok(ServerQuery { steps, anchor })
    }
}

impl WireCodec for SpanRec {
    fn encode_into(&self, enc: &mut Enc) {
        enc.varint(self.trace);
        enc.varint(self.id);
        enc.varint(self.parent);
        enc.str(&self.name);
        enc.u8(match self.side {
            Side::Client => 0,
            Side::Server => 1,
        });
        enc.varint(self.start_ns);
        enc.varint(self.dur_ns);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SpanRec {
            trace: dec.varint()?,
            id: dec.varint()?,
            parent: dec.varint()?,
            name: dec.str()?,
            side: match dec.u8()? {
                0 => Side::Client,
                1 => Side::Server,
                tag => {
                    return Err(CodecError::BadTag {
                        context: "span side",
                        tag,
                    })
                }
            },
            start_ns: dec.varint()?,
            dur_ns: dec.varint()?,
        })
    }
}

/// Minimum encoded [`SpanRec`]: three 1-byte varints, an empty name, the
/// side byte, and two 1-byte varints.
const MIN_SPAN_LEN: usize = 7;

impl WireCodec for ServerResponse {
    fn encode_into(&self, enc: &mut Enc) {
        enc.str(&self.pruned_xml);
        enc.usize(self.offsets.len());
        let mut last = 0;
        for &offset in &self.offsets {
            encode_offset(offset, &mut last, enc);
        }
        self.blocks.encode_into(enc);
        enc.duration(self.translate_time);
        enc.duration(self.process_time);
        enc.bool(self.served_from_cache);
        enc.usize(self.spans.len());
        for s in &self.spans {
            s.encode_into(enc);
        }
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let pruned_xml = dec.str()?;
        // The offsets are read once the table is: a reply cut short or
        // swollen anywhere before its table's end reserves nothing for them.
        let n = dec.count(1)?;
        let mut at_offsets = dec.clone();
        for _ in 0..n {
            dec.varint()?;
        }
        let blocks = SealedBlocks::decode_from(dec)?;
        let (mut offsets, mut last) = (Vec::with_capacity(n), 0);
        for _ in 0..n {
            offsets.push(decode_offset(&mut last, &mut at_offsets)?);
        }
        let translate_time = dec.duration()?;
        let process_time = dec.duration()?;
        let served_from_cache = dec.bool()?;
        let n = dec.count(MIN_SPAN_LEN)?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(SpanRec::decode_from(dec)?);
        }
        Ok(ServerResponse {
            pruned_xml,
            blocks,
            offsets,
            translate_time,
            process_time,
            served_from_cache,
            spans,
        })
    }
}

// ---------------------------------------------------------- update types --

impl WireCodec for InsertionSlot {
    fn encode_into(&self, enc: &mut Enc) {
        self.parent.encode_into(enc);
        enc.varint(self.gap_lo);
        enc.varint(self.gap_hi);
        enc.varint(self.next_block_id as u64);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(InsertionSlot {
            parent: Interval::decode_from(dec)?,
            gap_lo: dec.varint()?,
            gap_hi: dec.varint()?,
            next_block_id: dec.u32()?,
        })
    }
}

/// Writes an offset of an ascending run as its distance from `last`, the
/// one before it (zero before the first), and moves `last` to it.
fn encode_offset(offset: u32, last: &mut u32, enc: &mut Enc) {
    enc.varint(offset.wrapping_sub(*last) as u64);
    *last = offset;
}

/// [`encode_offset`]'s one reader.
fn decode_offset(last: &mut u32, dec: &mut Dec<'_>) -> Result<u32, CodecError> {
    *last = last
        .checked_add(dec.u32()?)
        .ok_or(CodecError::Invalid("an offset past the largest one"))?;
    Ok(*last)
}

/// A visible fragment's section: the text, `(ordinal, interval)` pairs,
/// then `(offset, interval)` for each block. Borrowed parts, so a server
/// writes its own without a copy.
pub(crate) fn encode_visible(
    xml: &str,
    intervals: &[(u32, Interval)],
    blocks: &[(u32, Interval)],
    enc: &mut Enc,
) {
    enc.str(xml);
    enc.usize(intervals.len());
    for (ordinal, iv) in intervals {
        enc.varint(*ordinal as u64);
        iv.encode_into(enc);
    }
    enc.usize(blocks.len());
    let mut last = 0;
    for &(offset, iv) in blocks {
        encode_offset(offset, &mut last, enc);
        iv.encode_into(enc);
    }
}

impl WireCodec for VisibleFragment {
    fn encode_into(&self, enc: &mut Enc) {
        encode_visible(&self.xml, &self.intervals, &self.blocks, enc);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let xml = dec.str()?;
        let n = dec.count(3)?;
        let mut intervals = Vec::with_capacity(n);
        for _ in 0..n {
            let ordinal = dec.u32()?;
            intervals.push((ordinal, Interval::decode_from(dec)?));
        }
        let n = dec.count(3)?;
        let (mut blocks, mut last) = (Vec::with_capacity(n), 0);
        for _ in 0..n {
            let offset = decode_offset(&mut last, dec)?;
            blocks.push((offset, Interval::decode_from(dec)?));
        }
        Ok(VisibleFragment {
            xml,
            intervals,
            blocks,
        })
    }
}

/// Block-table entries, `(representative, block id)`: an insert's and the
/// stored image's.
pub(crate) fn encode_block_pairs(pairs: &[(Interval, u32)], enc: &mut Enc) {
    enc.usize(pairs.len());
    for (iv, id) in pairs {
        iv.encode_into(enc);
        enc.varint(*id as u64);
    }
}

pub(crate) fn decode_block_pairs(dec: &mut Dec<'_>) -> Result<Vec<(Interval, u32)>, CodecError> {
    let n = dec.count(3)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let iv = Interval::decode_from(dec)?;
        pairs.push((iv, dec.u32()?));
    }
    Ok(pairs)
}

/// One value-index entry, `(ciphertext, block id)`: an insert's, after its
/// attribute, and the stored image's, in its attribute's run.
pub(crate) fn encode_value_entry(cipher: u128, id: u32, enc: &mut Enc) {
    enc.u128(cipher);
    enc.varint(id as u64);
}

pub(crate) fn decode_value_entry(dec: &mut Dec<'_>) -> Result<(u128, u32), CodecError> {
    Ok((dec.u128()?, dec.u32()?))
}

/// Minimum encoded value entry: the ciphertext and a one-byte id.
pub(crate) const MIN_VALUE_ENTRY_LEN: usize = 16 + 1;

impl WireCodec for InsertDelta {
    fn encode_into(&self, enc: &mut Enc) {
        self.parent.encode_into(enc);
        self.visible.encode_into(enc);
        enc.usize(self.blocks.len());
        for b in &self.blocks {
            b.encode_into(enc);
        }
        enc.usize(self.dsi_entries.len());
        for (tag, iv) in &self.dsi_entries {
            enc.str(tag);
            iv.encode_into(enc);
        }
        encode_block_pairs(&self.block_entries, enc);
        enc.usize(self.value_entries.len());
        for (attr, cipher, id) in &self.value_entries {
            enc.str(attr);
            encode_value_entry(*cipher, *id, enc);
        }
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let parent = Interval::decode_from(dec)?;
        let visible = VisibleFragment::decode_from(dec)?;
        let n = dec.count(MIN_BLOCK_LEN)?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            blocks.push(SealedBlock::decode_from(dec)?);
        }
        let n = dec.count(3)?;
        let mut dsi_entries = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = dec.str()?;
            dsi_entries.push((tag, Interval::decode_from(dec)?));
        }
        let block_entries = decode_block_pairs(dec)?;
        let n = dec.count(1 + MIN_VALUE_ENTRY_LEN)?;
        let mut value_entries = Vec::with_capacity(n);
        for _ in 0..n {
            let attr = dec.str()?;
            let (cipher, id) = decode_value_entry(dec)?;
            value_entries.push((attr, cipher, id));
        }
        Ok(InsertDelta {
            parent,
            visible,
            blocks,
            dsi_entries,
            block_entries,
            value_entries,
        })
    }
}

impl WireCodec for DeleteOutcome {
    fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.deleted);
        enc.usize(self.skipped_in_block);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(DeleteOutcome {
            deleted: dec.usize()?,
            skipped_in_block: dec.usize()?,
        })
    }
}

// --------------------------------------------------------------- messages --

/// A [`CoreError`] in transit: category code + message. Lossless enough for
/// clients to react; the exact variant is preserved for known categories.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    pub code: u8,
    pub message: String,
}

impl WireError {
    pub fn from_core(e: &CoreError) -> WireError {
        let (code, message) = match e {
            CoreError::ConstraintSyntax(m) => (0, m.clone()),
            CoreError::Query(m) => (1, m.clone()),
            CoreError::EmptyDocument => (2, String::new()),
            CoreError::Opess(m) => (3, m.clone()),
            CoreError::Block(m) => (4, m.clone()),
            CoreError::Response(m) => (5, m.clone()),
            CoreError::Persist(m) => (6, m.clone()),
            CoreError::Codec(m) => (7, m.clone()),
            CoreError::Transport(m) => (8, m.clone()),
            CoreError::Tenant(m) => (9, m.clone()),
            // The retry-after hint rides inside the message as
            // "<ms>;<reason>", keeping the WireError shape code + string.
            CoreError::Unavailable {
                retry_after_ms,
                reason,
            } => (10, format!("{retry_after_ms};{reason}")),
            CoreError::Delta(m) => (11, m.clone()),
        };
        WireError { code, message }
    }

    pub fn into_core(self) -> CoreError {
        match self.code {
            0 => CoreError::ConstraintSyntax(self.message),
            1 => CoreError::Query(self.message),
            2 => CoreError::EmptyDocument,
            3 => CoreError::Opess(self.message),
            4 => CoreError::Block(self.message),
            5 => CoreError::Response(self.message),
            6 => CoreError::Persist(self.message),
            7 => CoreError::Codec(self.message),
            8 => CoreError::Transport(self.message),
            9 => CoreError::Tenant(self.message),
            10 => {
                let (ms, reason) = match self.message.split_once(';') {
                    Some((ms, reason)) => (ms.parse().unwrap_or(0), reason.to_string()),
                    None => (0, self.message),
                };
                CoreError::Unavailable {
                    retry_after_ms: ms,
                    reason,
                }
            }
            11 => CoreError::Delta(self.message),
            other => CoreError::Transport(format!(
                "server error (unknown category {other}): {}",
                self.message
            )),
        }
    }
}

impl WireCodec for WireError {
    fn encode_into(&self, enc: &mut Enc) {
        enc.u8(self.code);
        enc.str(&self.message);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(WireError {
            code: dec.u8()?,
            message: dec.str()?,
        })
    }
}

/// A fully decoded frame: the message plus every framing field. `trace`
/// and `req_id` are 0 when unassigned; `db` is empty for frames addressed
/// to the default db.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    pub msg: Message,
    pub trace: u64,
    pub req_id: u64,
    pub db: String,
}

/// Every message that crosses the client↔server boundary. Requests are
/// `0x01..=0x7F`, responses `0x80..=0xFF`.
///
/// Retired codes, reserved and never to be reused: `0x07` (an insert whose
/// visible fragment carried its intervals as annotation attributes; an
/// insert is `0x0E`), `0x09`/`0x88` (the cache-counter request and reply),
/// `0x0C`/`0x8C` (a batch of read requests in one frame and its answer; a
/// pipelined window carries many requests per connection instead) and
/// `0x0D`/`0x8D` (the flight-recorder dump). A frame carrying one decodes to
/// [`CodecError::BadTag`] `{ context: "message" }` like any unknown type.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // Requests.
    /// Evaluate a translated query (§5: pruned doc + blocks).
    Query(ServerQuery),
    /// Ship the whole hosted database (the naive baseline).
    NaiveQuery,
    /// Fetch one sealed block by id.
    FetchBlock(u32),
    /// Minimum/maximum ciphertext under an encrypted attribute key.
    ValueExtreme {
        attr_key: String,
        max: bool,
    },
    /// Intervals of nodes matching a translated query (update path).
    Locate(ServerQuery),
    /// Request an insertion slot under a parent interval.
    InsertionSlotReq(Interval),
    /// Apply a prepared insertion.
    ApplyInsert(InsertDelta),
    /// Delete all subtrees matching a translated query.
    DeleteWhere(ServerQuery),
    /// Request the server's metrics-registry exposition.
    MetricsReq,
    /// Liveness probe: answered with [`Message::Pong`] without touching
    /// the database, so the retry layer can tell a dead server from a slow
    /// one.
    Ping,

    // Responses.
    Answer(ServerResponse),
    /// Prometheus-style text exposition of the server's metrics registry.
    MetricsText(String),
    Block(Option<SealedBlock>),
    Extreme(Option<(u128, u32)>),
    Intervals(Vec<Interval>),
    Slot(InsertionSlot),
    InsertOk,
    Deleted(DeleteOutcome),
    /// Reply to [`Message::Ping`].
    Pong,
    /// Load-shed reply: the server is saturated (or could not admit
    /// the request within its deadline) and refuses the request instead of
    /// queueing it; the client should retry after the suggested delay.
    Busy {
        retry_after_ms: u32,
    },
    Error(WireError),
}

impl Message {
    /// The frame-header message type byte.
    pub fn msg_type(&self) -> u8 {
        match self {
            Message::Query(_) => 0x01,
            Message::NaiveQuery => 0x02,
            Message::FetchBlock(_) => 0x03,
            Message::ValueExtreme { .. } => 0x04,
            Message::Locate(_) => 0x05,
            Message::InsertionSlotReq(_) => 0x06,
            Message::ApplyInsert(_) => 0x0E,
            Message::DeleteWhere(_) => 0x08,
            Message::MetricsReq => 0x0A,
            Message::Ping => 0x0B,
            Message::Answer(_) => 0x81,
            Message::MetricsText(_) => 0x89,
            Message::Block(_) => 0x82,
            Message::Extreme(_) => 0x83,
            Message::Intervals(_) => 0x84,
            Message::Slot(_) => 0x85,
            Message::InsertOk => 0x86,
            Message::Deleted(_) => 0x87,
            Message::Pong => 0x8A,
            Message::Busy { .. } => 0x8B,
            Message::Error(_) => 0xFF,
        }
    }

    /// True for requests that mutate server state.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Message::ApplyInsert(_) | Message::DeleteWhere(_))
    }

    fn encode_payload(&self, enc: &mut Enc) {
        match self {
            Message::Query(q) | Message::Locate(q) | Message::DeleteWhere(q) => q.encode_into(enc),
            Message::NaiveQuery | Message::InsertOk => {}
            Message::MetricsReq | Message::Ping | Message::Pong => {}
            Message::Busy { retry_after_ms } => enc.varint(*retry_after_ms as u64),
            Message::MetricsText(text) => enc.str(text),
            Message::FetchBlock(id) => enc.varint(*id as u64),
            Message::ValueExtreme { attr_key, max } => {
                enc.str(attr_key);
                enc.bool(*max);
            }
            Message::InsertionSlotReq(iv) => iv.encode_into(enc),
            Message::ApplyInsert(delta) => delta.encode_into(enc),
            Message::Answer(resp) => resp.encode_into(enc),
            Message::Block(opt) => match opt {
                None => enc.u8(0),
                Some(b) => {
                    enc.u8(1);
                    b.encode_into(enc);
                }
            },
            Message::Extreme(opt) => match opt {
                None => enc.u8(0),
                Some((cipher, id)) => {
                    enc.u8(1);
                    enc.u128(*cipher);
                    enc.varint(*id as u64);
                }
            },
            Message::Intervals(ivs) => {
                enc.usize(ivs.len());
                for iv in ivs {
                    iv.encode_into(enc);
                }
            }
            Message::Slot(slot) => slot.encode_into(enc),
            Message::Deleted(outcome) => outcome.encode_into(enc),
            Message::Error(err) => err.encode_into(enc),
        }
    }

    fn decode_payload(msg_type: u8, dec: &mut Dec<'_>) -> Result<Message, CodecError> {
        match msg_type {
            0x01 => Ok(Message::Query(ServerQuery::decode_from(dec)?)),
            0x02 => Ok(Message::NaiveQuery),
            0x03 => Ok(Message::FetchBlock(dec.u32()?)),
            0x04 => Ok(Message::ValueExtreme {
                attr_key: dec.str()?,
                max: dec.bool()?,
            }),
            0x05 => Ok(Message::Locate(ServerQuery::decode_from(dec)?)),
            0x06 => Ok(Message::InsertionSlotReq(Interval::decode_from(dec)?)),
            0x0E => Ok(Message::ApplyInsert(InsertDelta::decode_from(dec)?)),
            0x08 => Ok(Message::DeleteWhere(ServerQuery::decode_from(dec)?)),
            0x0A => Ok(Message::MetricsReq),
            0x0B => Ok(Message::Ping),
            0x8A => Ok(Message::Pong),
            0x8B => Ok(Message::Busy {
                retry_after_ms: dec.u32()?,
            }),
            0x81 => Ok(Message::Answer(ServerResponse::decode_from(dec)?)),
            0x89 => Ok(Message::MetricsText(dec.str()?)),
            0x82 => match dec.u8()? {
                0 => Ok(Message::Block(None)),
                1 => Ok(Message::Block(Some(SealedBlock::decode_from(dec)?))),
                tag => Err(CodecError::BadTag {
                    context: "block option",
                    tag,
                }),
            },
            0x83 => match dec.u8()? {
                0 => Ok(Message::Extreme(None)),
                1 => {
                    let cipher = dec.u128()?;
                    Ok(Message::Extreme(Some((cipher, dec.u32()?))))
                }
                tag => Err(CodecError::BadTag {
                    context: "extreme option",
                    tag,
                }),
            },
            0x84 => {
                let n = dec.count(2)?;
                let mut ivs = Vec::with_capacity(n);
                for _ in 0..n {
                    ivs.push(Interval::decode_from(dec)?);
                }
                Ok(Message::Intervals(ivs))
            }
            0x85 => Ok(Message::Slot(InsertionSlot::decode_from(dec)?)),
            0x86 => Ok(Message::InsertOk),
            0x87 => Ok(Message::Deleted(DeleteOutcome::decode_from(dec)?)),
            0xFF => Ok(Message::Error(WireError::decode_from(dec)?)),
            tag => Err(CodecError::BadTag {
                context: "message",
                tag,
            }),
        }
    }

    /// Encodes the message as a complete frame with no trace id.
    pub fn encode_frame(&self) -> Vec<u8> {
        self.encode_frame_traced(0)
    }

    /// Encodes a frame carrying `trace` (0 = untraced).
    pub fn encode_frame_traced(&self, trace: u64) -> Vec<u8> {
        self.encode_frame_req(PROTOCOL_VERSION, trace, 0)
    }

    /// Encodes a frame carrying `trace` (0 = untraced) and `req_id`
    /// (0 = unassigned), addressed to the default db. `version` is written
    /// into the header as given: every caller that wants a frame a peer
    /// will accept passes [`PROTOCOL_VERSION`]; any other byte forges a
    /// foreign-version frame (same layout, valid checksum) that
    /// [`Message::parse_header`] refuses. The signature is pinned by the
    /// perf ledger.
    pub fn encode_frame_req(&self, version: u8, trace: u64, req_id: u64) -> Vec<u8> {
        self.encode_frame_with(version, trace, req_id, "")
    }

    /// Encodes the message as the reply to `request`, echoing its trace and
    /// request ids — which is how the requester correlates it.
    pub fn encode_reply(&self, request: &DecodedFrame) -> Vec<u8> {
        self.encode_frame_req(PROTOCOL_VERSION, request.trace, request.req_id)
    }

    /// Encodes a frame addressed to the named db (empty = default db).
    /// Fails with [`CodecError::DbId`] if `db` exceeds [`MAX_DB_ID_LEN`]
    /// bytes.
    pub fn encode_frame_db(
        &self,
        trace: u64,
        req_id: u64,
        db: &str,
    ) -> Result<Vec<u8>, CodecError> {
        if db.len() > MAX_DB_ID_LEN {
            return Err(CodecError::DbId("db id exceeds maximum length"));
        }
        Ok(self.encode_frame_with(PROTOCOL_VERSION, trace, req_id, db))
    }

    /// The one frame writer, into the one buffer a frame has: the header
    /// and framing fields are laid down first, the payload is encoded
    /// straight behind them, and its length and the checksum — which covers
    /// every byte of the frame except the checksum field itself — are
    /// patched in place. `db` is at most [`MAX_DB_ID_LEN`] bytes.
    fn encode_frame_with(&self, version: u8, trace: u64, req_id: u64, db: &str) -> Vec<u8> {
        let mut frame = Vec::with_capacity(frame_len_of(self.payload_len_bound()));
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.push(version);
        frame.push(self.msg_type());
        frame.extend_from_slice(&[0u8; 4]);
        frame.extend_from_slice(&trace.to_le_bytes());
        frame.extend_from_slice(&req_id.to_le_bytes());
        frame.extend_from_slice(&[0u8; CHECKSUM_FIELD_LEN]);
        frame.push(db.len() as u8);
        frame.extend_from_slice(db.as_bytes());
        frame.resize(frame_len_of(0), 0);
        let mut enc = Enc { buf: frame };
        self.encode_payload(&mut enc);
        let mut frame = enc.into_bytes();
        let payload_len = (frame.len() - frame_len_of(0)) as u32;
        frame[4..FRAME_HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&[&frame[..CRC_POS], &frame[CRC_POS + CHECKSUM_FIELD_LEN..]]);
        frame[CRC_POS..CRC_POS + CHECKSUM_FIELD_LEN].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// What to reserve for the payload, so that the buffer of a frame large
    /// enough to matter is sized once: an upper bound on an untraced
    /// `Answer` (spans may still grow it), nothing for the small messages.
    fn payload_len_bound(&self) -> usize {
        // Nonce, tag, two varints and an offset a block; the text's length,
        // the block, offset and span counts, two timings and a flag around
        // them.
        const BLOCK_FRAMING: usize = 12 + TAG_BYTES + 2 * 10 + 5;
        const ANSWER_FRAMING: usize = 4 * 10 + 2 * 8 + 1;
        match self {
            Message::Answer(resp) => {
                let blocks = resp
                    .blocks
                    .iter()
                    .map(|b| b.ciphertext.len() + BLOCK_FRAMING);
                ANSWER_FRAMING + resp.pruned_xml.len() + blocks.sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Exact frame length without materializing the frame twice.
    pub fn frame_len(&self) -> usize {
        let mut enc = Enc::new();
        self.encode_payload(&mut enc);
        frame_len_of(enc.into_bytes().len())
    }

    /// Parses the fixed frame header, returning `(msg_type, payload_len)`;
    /// [`FRAME_EXTRA_LEN`] framing bytes follow the header before
    /// `payload_len` payload bytes. A version byte other than
    /// [`PROTOCOL_VERSION`] is refused before the length is looked at.
    pub fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<(u8, usize), CodecError> {
        if header[0..2] != FRAME_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = header[2];
        if version != PROTOCOL_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversize {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        Ok((header[3], len))
    }

    /// Decodes one complete frame from a buffer; the buffer must contain
    /// exactly one frame. Discards the framing fields.
    pub fn decode_frame(bytes: &[u8]) -> Result<Message, CodecError> {
        Self::decode_frame_ext(bytes).map(|d| d.msg)
    }

    /// Decodes one complete frame with all framing fields. The checksum is
    /// verified before the payload is interpreted.
    pub fn decode_frame_ext(bytes: &[u8]) -> Result<DecodedFrame, CodecError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&bytes[..FRAME_HEADER_LEN]);
        let (msg_type, len) = Self::parse_header(&header)?;
        let mut fields = Dec::new(&bytes[FRAME_HEADER_LEN..]);
        let trace = u64::from_le_bytes(fields.array()?);
        let req_id = u64::from_le_bytes(fields.array()?);
        let stored = u32::from_le_bytes(fields.array()?);
        let db_raw = fields.take(DB_ID_FIELD_LEN)?;
        if fields.remaining() < len {
            return Err(CodecError::Truncated);
        }
        if fields.remaining() > len {
            return Err(CodecError::TrailingBytes(fields.remaining() - len));
        }
        let payload = fields.take(len)?;
        let computed = crc32(&[&bytes[..CRC_POS], &bytes[CRC_POS + CHECKSUM_FIELD_LEN..]]);
        if stored != computed {
            return Err(CodecError::Checksum { stored, computed });
        }
        // Validate the db id only after the checksum: a corrupted frame
        // surfaces as `Checksum`, a well-formed frame naming a bad db as the
        // typed `DbId` error — never a panic.
        let db_len = db_raw[0] as usize;
        if db_len > MAX_DB_ID_LEN {
            return Err(CodecError::DbId("db id exceeds maximum length"));
        }
        if db_raw[1 + db_len..].iter().any(|&b| b != 0) {
            return Err(CodecError::DbId("nonzero padding after db id"));
        }
        let db = std::str::from_utf8(&db_raw[1..1 + db_len])
            .map_err(|_| CodecError::DbId("db id is not valid UTF-8"))?
            .to_string();
        Ok(DecodedFrame {
            msg: Self::decode_payload_bytes(msg_type, payload)?,
            trace,
            req_id,
            db,
        })
    }

    /// Decodes a bare payload (already stripped of framing), requiring full
    /// consumption.
    fn decode_payload_bytes(msg_type: u8, payload: &[u8]) -> Result<Message, CodecError> {
        let mut dec = Dec::new(payload);
        let msg = Self::decode_payload(msg_type, &mut dec)?;
        dec.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> ServerQuery {
        ServerQuery {
            steps: vec![
                SStep {
                    axis: SAxis::Descendant,
                    tags: vec!["patient".into(), "XTY0POA".into()],
                    preds: vec![SPred::Value {
                        path: vec![SStep {
                            axis: SAxis::Attribute,
                            tags: vec!["@age".into()],
                            preds: vec![],
                        }],
                        range: Some((
                            "X95SER".into(),
                            ValueRange {
                                lo: 7,
                                hi: 1 << 100,
                            },
                        )),
                        plain: Some((CmpOp::Ge, Literal::Number(42.5))),
                    }],
                },
                SStep {
                    axis: SAxis::Child,
                    tags: vec![],
                    preds: vec![SPred::Exists(vec![SStep {
                        axis: SAxis::Child,
                        tags: vec!["name".into()],
                        preds: vec![],
                    }])],
                },
            ],
            anchor: 1,
        }
    }

    /// Recomputes the checksum of a hand-edited frame, so the edit reaches
    /// the decoder behind it.
    fn refresh_crc(frame: &mut [u8]) {
        let crc = crc32(&[&frame[..CRC_POS], &frame[CRC_POS + CHECKSUM_FIELD_LEN..]]);
        frame[CRC_POS..CRC_POS + CHECKSUM_FIELD_LEN].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn query_roundtrip() {
        let q = sample_query();
        assert_eq!(ServerQuery::decode(&q.encode()).unwrap(), q);
    }

    fn sample_span() -> SpanRec {
        SpanRec {
            trace: 0xDEAD_BEEF,
            id: 2,
            parent: 1,
            name: "server.sjoin".into(),
            side: Side::Server,
            start_ns: 1_000,
            dur_ns: 250_000,
        }
    }

    #[test]
    fn response_roundtrip() {
        let r = ServerResponse {
            pruned_xml: "<r><a/></r>".into(),
            offsets: vec![3],
            blocks: [&SealedBlock {
                id: 3,
                nonce: [9; 12],
                ciphertext: vec![1, 2, 3, 4],
                tag: [7; TAG_BYTES],
            }]
            .into_iter()
            .collect(),
            translate_time: Duration::from_micros(12),
            process_time: Duration::from_millis(3),
            served_from_cache: true,
            spans: vec![sample_span()],
        };
        assert_eq!(ServerResponse::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn span_roundtrip() {
        let s = sample_span();
        assert_eq!(SpanRec::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn trace_id_rides_the_frame_header() {
        let msg = Message::Query(sample_query());
        let frame = msg.encode_frame_traced(0x0123_4567_89AB_CDEF);
        assert_eq!(frame.len(), msg.frame_len());
        let d = Message::decode_frame_ext(&frame).unwrap();
        assert_eq!(d.msg, msg);
        assert_eq!(d.trace, 0x0123_4567_89AB_CDEF);
        // The trace id is framing, not payload: same payload length either
        // way, so identical queries keep identical byte counts.
        assert_eq!(frame.len(), msg.encode_frame().len());
    }

    #[test]
    fn frame_roundtrip_every_message() {
        let messages = vec![
            Message::Query(sample_query()),
            Message::NaiveQuery,
            Message::FetchBlock(77),
            Message::ValueExtreme {
                attr_key: "Xk".into(),
                max: true,
            },
            Message::Locate(sample_query()),
            Message::InsertionSlotReq(Interval { lo: 4, hi: 900 }),
            Message::ApplyInsert(InsertDelta {
                parent: Interval { lo: 1, hi: 10_000 },
                visible: VisibleFragment {
                    xml: "<x></x>".into(),
                    intervals: vec![(0, Interval { lo: 2, hi: 9 })],
                    blocks: vec![(3, Interval { lo: 3, hi: 5 })],
                },
                blocks: vec![SealedBlock {
                    id: 0,
                    nonce: [1; 12],
                    ciphertext: vec![0xAB; 20],
                    tag: [2; TAG_BYTES],
                }],
                dsi_entries: vec![("Xtag".into(), Interval { lo: 2, hi: 9 })],
                block_entries: vec![(Interval { lo: 2, hi: 9 }, 0)],
                value_entries: vec![("Xattr".into(), 123456789u128, 0)],
            }),
            Message::DeleteWhere(sample_query()),
            Message::Answer(ServerResponse {
                pruned_xml: String::new(),
                blocks: SealedBlocks::new(),
                offsets: Vec::new(),
                translate_time: Duration::ZERO,
                process_time: Duration::ZERO,
                served_from_cache: false,
                spans: vec![],
            }),
            Message::Answer(ServerResponse {
                pruned_xml: "<r/>".into(),
                blocks: SealedBlocks::new(),
                offsets: Vec::new(),
                translate_time: Duration::from_micros(1),
                process_time: Duration::from_micros(2),
                served_from_cache: true,
                spans: vec![sample_span()],
            }),
            Message::MetricsReq,
            Message::MetricsText("# TYPE exq_db_requests_total counter\n".into()),
            Message::Block(None),
            Message::Block(Some(SealedBlock {
                id: 1,
                nonce: [0; 12],
                ciphertext: vec![],
                tag: [0; TAG_BYTES],
            })),
            Message::Extreme(None),
            Message::Extreme(Some((u128::MAX, 42))),
            Message::Intervals(vec![Interval { lo: 1, hi: 2 }, Interval { lo: 5, hi: 99 }]),
            Message::Slot(InsertionSlot {
                parent: Interval { lo: 1, hi: 100 },
                gap_lo: 50,
                gap_hi: 100,
                next_block_id: 6,
            }),
            Message::InsertOk,
            Message::Deleted(DeleteOutcome {
                deleted: 3,
                skipped_in_block: 1,
            }),
            Message::Ping,
            Message::Pong,
            Message::Busy { retry_after_ms: 25 },
            Message::Error(WireError::from_core(&CoreError::Query("nope".into()))),
        ];
        for msg in messages {
            let frame = msg.encode_frame();
            assert_eq!(frame.len(), msg.frame_len(), "frame_len mismatch: {msg:?}");
            // The three sizes the accounting quotes are that same length.
            match &msg {
                Message::Query(q) => assert_eq!(q.wire_size(), frame.len()),
                Message::ApplyInsert(delta) => assert_eq!(delta.wire_size(), frame.len()),
                Message::Answer(resp) => assert_eq!(resp.payload_bytes(), frame.len()),
                _ => {}
            }
            let back = Message::decode_frame(&frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unavailable_round_trips_with_retry_hint() {
        let core = CoreError::Unavailable {
            retry_after_ms: 1500,
            reason: "degraded: wal append failed".into(),
        };
        let wire = WireError::from_core(&core);
        assert_eq!(wire.code, 10);
        assert_eq!(wire.message, "1500;degraded: wal append failed");
        assert_eq!(wire.clone().into_core(), core);

        // A malformed hint degrades gracefully instead of erroring.
        let mangled = WireError {
            code: 10,
            message: "storage gone".into(),
        };
        assert_eq!(
            mangled.into_core(),
            CoreError::Unavailable {
                retry_after_ms: 0,
                reason: "storage gone".into()
            }
        );
    }

    #[test]
    fn truncated_frames_error() {
        let frame = Message::Query(sample_query()).encode_frame();
        for cut in 0..frame.len() {
            let err = Message::decode_frame(&frame[..cut]);
            assert!(err.is_err(), "prefix of len {cut} decoded");
        }
    }

    #[test]
    fn bad_magic_version_and_type() {
        let mut frame = Message::NaiveQuery.encode_frame();
        frame[0] = b'Z';
        assert_eq!(Message::decode_frame(&frame), Err(CodecError::BadMagic));

        let mut frame = Message::NaiveQuery.encode_frame();
        frame[2] = 99;
        assert_eq!(
            Message::decode_frame(&frame),
            Err(CodecError::BadVersion(99))
        );

        // A flipped type byte fails the checksum before the tag is ever
        // interpreted.
        let mut frame = Message::NaiveQuery.encode_frame();
        frame[3] = 0x60;
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(CodecError::Checksum { .. })
        ));
        // Under a valid checksum the unknown tag itself is the error.
        refresh_crc(&mut frame);
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocation() {
        let mut frame = Message::NaiveQuery.encode_frame();
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(CodecError::Oversize { .. })
        ));
    }

    /// An `Answer` frame around `payload`, its length and checksum right.
    fn answer_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(0x81);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&[0u8; FRAME_EXTRA_LEN]);
        frame.extend_from_slice(payload);
        refresh_crc(&mut frame);
        frame
    }

    /// A multi-block `Answer` whose block count, one ciphertext length or
    /// one block's bytes are damaged, its checksum refreshed so the payload
    /// decoder sees the damage: each is a typed error, never a panic.
    #[test]
    fn damaged_answer_blocks_are_typed_errors() {
        const LEN: usize = 40;
        let blocks: SealedBlocks = (0..3u32)
            .map(|id| SealedBlock {
                id,
                nonce: [id as u8; 12],
                ciphertext: vec![0xC0 | id as u8; LEN],
                tag: [7; TAG_BYTES],
            })
            .collect();
        let resp = ServerResponse {
            pruned_xml: "<r></r>".into(),
            blocks,
            offsets: vec![3, 3, 3],
            translate_time: Duration::from_nanos(3),
            process_time: Duration::from_nanos(5),
            served_from_cache: false,
            spans: vec![],
        };
        let payload = resp.encode();
        let decoded = Message::decode_frame(&answer_frame(&payload));
        assert_eq!(decoded, Ok(Message::Answer(resp)));
        // The text's length and bytes, the offsets (a count and three
        // one-byte deltas), the block count, then per block its id, nonce,
        // ciphertext length, ciphertext and tag (one-byte varints).
        let count_at = 1 + "<r></r>".len() + 4;
        let len_at = |i: usize| count_at + 1 + i * (1 + 12 + 1 + LEN + TAG_BYTES) + 1 + 12;
        let varint = |v: u64| {
            let mut enc = Enc::new();
            enc.varint(v);
            enc.into_bytes()
        };
        let with = |at: usize, bytes: Vec<u8>| {
            let mut damaged = payload.clone();
            damaged.splice(at..at + 1, bytes);
            damaged
        };
        let cases = [
            ("one block more than is there", with(count_at, varint(4))),
            ("a count no payload holds", with(count_at, varint(1 << 40))),
            (
                "a ciphertext past the end",
                with(len_at(1), varint(1 << 20)),
            ),
            // The reader runs a byte into block 2 and takes its first
            // ciphertext byte for a length: every byte of it continues a
            // varint.
            (
                "a ciphertext a byte longer",
                with(len_at(1), varint(LEN as u64 + 1)),
            ),
            ("cut inside a block", payload[..len_at(2) + 10].to_vec()),
        ];
        let got: Vec<_> = cases
            .iter()
            .map(|(what, damaged)| (*what, Message::decode_frame(&answer_frame(damaged))))
            .collect();
        let want = [
            Err(CodecError::Truncated),
            Err(CodecError::CountOverflow),
            Err(CodecError::Truncated),
            Err(CodecError::VarintOverflow),
            Err(CodecError::Truncated),
        ];
        let want: Vec<_> = cases.iter().map(|(what, _)| *what).zip(want).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn count_bomb_rejected() {
        // An Intervals frame claiming 2^40 entries in a 10-byte payload.
        let mut enc = Enc::new();
        enc.varint(1u64 << 40);
        let payload = enc.into_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(0x84);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&[0u8; FRAME_EXTRA_LEN]);
        frame.extend_from_slice(&payload);
        refresh_crc(&mut frame);
        assert_eq!(
            Message::decode_frame(&frame),
            Err(CodecError::CountOverflow)
        );
    }

    #[test]
    fn invalid_interval_rejected() {
        let mut enc = Enc::new();
        enc.varint(9);
        enc.varint(4); // hi < lo
        let payload = enc.into_bytes();
        assert_eq!(
            Interval::decode(&payload),
            Err(CodecError::Invalid("interval lo >= hi"))
        );
    }

    #[test]
    fn anchor_out_of_range_rejected() {
        let mut q = sample_query();
        q.anchor = 7;
        let bytes = q.encode();
        assert_eq!(
            ServerQuery::decode(&bytes),
            Err(CodecError::Invalid("anchor out of range"))
        );
    }

    #[test]
    fn depth_bomb_rejected() {
        // Nest Exists predicates past the cap.
        let mut q = ServerQuery {
            steps: vec![SStep {
                axis: SAxis::Child,
                tags: vec![],
                preds: vec![],
            }],
            anchor: 0,
        };
        for _ in 0..(MAX_PATTERN_DEPTH + 2) {
            q = ServerQuery {
                steps: vec![SStep {
                    axis: SAxis::Child,
                    tags: vec![],
                    preds: vec![SPred::Exists(std::mem::take(&mut q.steps))],
                }],
                anchor: 0,
            };
        }
        assert_eq!(
            ServerQuery::decode(&q.encode()),
            Err(CodecError::DepthExceeded)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::InsertOk.encode_frame();
        bytes.push(0);
        assert!(matches!(
            Message::decode_frame(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn request_id_rides_the_frame() {
        let msg = Message::Query(sample_query());
        let frame = msg.encode_frame_req(PROTOCOL_VERSION, 7, 0xFACE_FEED_0123_4567);
        assert_eq!(frame.len(), msg.frame_len());
        let d = Message::decode_frame_ext(&frame).unwrap();
        assert_eq!(d.msg, msg);
        assert_eq!(d.trace, 7);
        assert_eq!(d.req_id, 0xFACE_FEED_0123_4567);
        // Framing fields don't change the payload length, so identical
        // queries keep identical byte counts regardless of ids.
        assert_eq!(frame.len(), msg.encode_frame().len());
    }

    #[test]
    fn db_id_rides_the_frame() {
        let msg = Message::Query(sample_query());
        let frame = msg.encode_frame_db(7, 42, "hospital-east").unwrap();
        assert_eq!(frame.len(), msg.frame_len());
        let d = Message::decode_frame_ext(&frame).unwrap();
        assert_eq!(d.msg, msg);
        assert_eq!(d.trace, 7);
        assert_eq!(d.req_id, 42);
        assert_eq!(d.db, "hospital-east");
        // The db id is framing, not payload: frames to different dbs keep
        // identical byte counts.
        assert_eq!(frame.len(), msg.encode_frame().len());
        // A max-length id still fits the fixed-width field.
        let long = "d".repeat(MAX_DB_ID_LEN);
        let frame = msg.encode_frame_db(0, 0, &long).unwrap();
        assert_eq!(Message::decode_frame_ext(&frame).unwrap().db, long);
    }

    #[test]
    fn oversized_db_id_rejected_on_encode() {
        let too_long = "d".repeat(MAX_DB_ID_LEN + 1);
        assert_eq!(
            Message::Ping.encode_frame_db(0, 0, &too_long),
            Err(CodecError::DbId("db id exceeds maximum length"))
        );
    }

    #[test]
    fn malformed_db_id_field_is_typed() {
        let db_pos = CRC_POS + CHECKSUM_FIELD_LEN;

        // Oversized length byte, valid checksum: the typed DbId error.
        let mut frame = Message::Ping.encode_frame();
        frame[db_pos] = MAX_DB_ID_LEN as u8 + 1;
        refresh_crc(&mut frame);
        assert_eq!(
            Message::decode_frame(&frame),
            Err(CodecError::DbId("db id exceeds maximum length"))
        );

        // Nonzero padding past the declared length.
        let mut frame = Message::Ping.encode_frame_db(0, 0, "a").unwrap();
        frame[db_pos + 10] = 0xFF;
        refresh_crc(&mut frame);
        assert_eq!(
            Message::decode_frame(&frame),
            Err(CodecError::DbId("nonzero padding after db id"))
        );

        // Non-UTF-8 name bytes.
        let mut frame = Message::Ping.encode_frame_db(0, 0, "ab").unwrap();
        frame[db_pos + 1] = 0xFF;
        refresh_crc(&mut frame);
        assert_eq!(
            Message::decode_frame(&frame),
            Err(CodecError::DbId("db id is not valid UTF-8"))
        );

        // Without a refreshed checksum, corruption in the db field is a
        // Checksum error, never a panic or a silently rerouted request.
        let mut frame = Message::Ping.encode_frame();
        frame[db_pos] ^= 0x01;
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(CodecError::Checksum { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The whole point of the checksum: no corrupted frame may decode
        // to a (possibly different) message. Flip every bit of every byte
        // of a realistic frame and demand a typed error each time.
        let msg = Message::Query(sample_query());
        let frame = msg.encode_frame_req(PROTOCOL_VERSION, 3, 42);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    Message::decode_frame(&bad).is_err(),
                    "flip of byte {i} bit {bit} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let mut frame = Message::Ping.encode_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        // Ping has no payload, so `last` lands in the db-id padding, which
        // the checksum covers.
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(CodecError::Checksum { .. })
        ));
    }

    #[test]
    fn retired_message_types_are_bad_tags() {
        let bad_tag = |tag| {
            Err(CodecError::BadTag {
                context: "message",
                tag,
            })
        };
        for tag in [0x07, 0x09, 0x0C, 0x0D, 0x88, 0x8C, 0x8D] {
            let mut frame = Message::NaiveQuery.encode_frame_req(PROTOCOL_VERSION, 5, 9);
            frame[3] = tag;
            refresh_crc(&mut frame);
            assert_eq!(Message::decode_frame(&frame), bad_tag(tag), "{tag:#04x}");
        }
    }

    #[test]
    fn reply_frames_echo_request_ids_byte_for_byte() {
        // Regression for the serve-path correlation bug: a reply encoded
        // with the request's trace and request ids must carry them in the
        // exact same byte positions the request frame does.
        let req = Message::Query(sample_query()).encode_frame_req(PROTOCOL_VERSION, 0xABCD, 77);
        let reply = Message::Pong.encode_frame_req(PROTOCOL_VERSION, 0xABCD, 77);
        let trace_pos = FRAME_HEADER_LEN..FRAME_HEADER_LEN + TRACE_FIELD_LEN;
        let id_pos = FRAME_HEADER_LEN + TRACE_FIELD_LEN
            ..FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN;
        assert_eq!(req[trace_pos.clone()], reply[trace_pos]);
        assert_eq!(req[id_pos.clone()], reply[id_pos]);
        let d = Message::decode_frame_ext(&reply).unwrap();
        assert_eq!((d.trace, d.req_id), (0xABCD, 77));
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut enc = Enc::new();
            enc.varint(v);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            assert_eq!(dec.varint().unwrap(), v);
            dec.finish().unwrap();
        }
    }

    /// Every encoded length from one byte to ten reads back, whole or
    /// with bytes after it, and is `Truncated` cut short at every byte.
    #[test]
    fn varint_reads_every_length_and_refuses_every_cut() {
        let read = |bytes: &[u8]| {
            let mut dec = Dec::new(bytes);
            dec.varint().map(|v| (v, dec.remaining()))
        };
        for len in 1..=10u32 {
            for v in [
                1u64 << (7 * (len - 1)),
                (1u64 << (7 * len).min(63)) - 1,
                u64::MAX,
            ] {
                let mut enc = Enc::new();
                enc.varint(v);
                let bytes = enc.into_bytes();
                if bytes.len() != len as usize {
                    continue;
                }
                assert_eq!(read(&bytes), Ok((v, 0)));
                assert_eq!(read(&[&bytes[..], &[0xD5; 9]].concat()), Ok((v, 9)));
                for cut in 0..bytes.len() {
                    assert_eq!(read(&bytes[..cut]), Err(CodecError::Truncated));
                }
            }
        }
        let overflows: [&[u8]; 4] = [
            // A tenth byte holding more than bit 63.
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F],
            // A tenth byte that continues, with or without an eleventh.
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81],
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
            ],
        ];
        for bytes in overflows {
            assert_eq!(read(bytes), Err(CodecError::VarintOverflow));
            assert_eq!(
                read(&[bytes, &[0x00; 4]].concat()),
                Err(CodecError::VarintOverflow)
            );
        }
    }
}
