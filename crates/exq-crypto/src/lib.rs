//! From-scratch cryptographic substrate for the encrypted-XML system.
//!
//! Nothing here depends on external crypto crates; every primitive the paper
//! needs is implemented in this crate:
//!
//! * [`chacha`] — the ChaCha20 stream cipher (RFC 7539 core), used for block
//!   encryption and as the PRF underlying everything else; its block
//!   function computes `N` blocks side by side, and the batch entry points
//!   run it sixteen wide: [`open_blocks`] and [`seal_blocks`] over a run of
//!   blocks, [`OpeKey::encrypt_many`] over the coins of the OPE tree nodes
//!   a batch of values shares (a coin is one block, named by its node);
//! * [`prf`] — keyed pseudo-random functions and key derivation;
//! * [`vernam`] — the deterministic fixed-width tag cipher used for element
//!   tags in the DSI index table and in client query translation (§5.1.1;
//!   the paper suggests a Vernam pad, but determinism forces pad reuse, so
//!   a keyed PRF realizes the same functional contract collision-free);
//! * [`ope`] — a lazy-sampled strictly-monotone order-preserving encryption
//!   function `u64 → u128` (the paper assumes an OPE function à la
//!   Agrawal et al. \[3\]);
//! * [`opess`] — Order-Preserving Encryption with Splitting and Scaling
//!   (§5.2): frequency-flattening value transformation for the value index;
//! * [`block`] — authenticated sealing of serialized subtree blocks, with
//!   the ChaCha20-Poly1305 AEAD of RFC 8439 (`poly1305` is its
//!   authenticator);
//! * [`bignum`] — exact big-integer combinatorics for the security theorems'
//!   candidate-database counts;
//! * [`keys`] — the client's key chain (master key → per-purpose subkeys).

pub mod bignum;
pub mod block;
pub mod chacha;
pub mod keys;
pub mod ope;
pub mod opess;
mod poly1305;
pub mod prf;
pub mod vernam;

pub use bignum::BigUint;
pub use block::{
    open_block, open_blocks, seal_block, seal_blocks, BlockCryptError, OpenedBlocks, SealedBlock,
    SealedBlocks, SealedRef,
};
pub use chacha::ChaCha20;
pub use keys::KeyChain;
pub use ope::OpeKey;
pub use opess::{OpessDraft, OpessError, OpessPlan, RangeOp, ValueRange};
pub use prf::Prf;
pub use vernam::TagCipher;

/// The parallel query path shares sealed blocks and key material across
/// worker threads, so these types must stay `Send + Sync`. Breaking that
/// (e.g. by introducing `Rc` or interior mutability without a lock) is a
/// compile error here rather than a distant one in `exq-core`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SealedBlock>();
    assert_send_sync::<SealedBlocks>();
    assert_send_sync::<OpenedBlocks>();
    assert_send_sync::<BlockCryptError>();
    assert_send_sync::<ChaCha20>();
    assert_send_sync::<KeyChain>();
    assert_send_sync::<OpeKey>();
    assert_send_sync::<OpessPlan>();
    assert_send_sync::<ValueRange>();
    assert_send_sync::<Prf>();
    assert_send_sync::<TagCipher>();
    assert_send_sync::<BigUint>();
};
