//! Server-side metadata structures for the encrypted-XML system.
//!
//! * [`dsi`] — the discontinuous structural interval (DSI) index of §5.1:
//!   randomized-gap interval labels for tree nodes, plus the paper-literal
//!   real-valued construction of Figure 3 and the *continuous* labeling used
//!   as the ablation baseline;
//! * [`sjoin`] — stack-based structural-join operators over intervals
//!   (ancestor–descendant, and parent–child derived from interval nesting,
//!   §5.1/§6.2);
//! * [`tables`] — the DSI index table of §5.1.1, held as the interval
//!   universe the joins run on, and the encryption block table, held as
//!   each universe position's enclosing block;
//! * [`paged`] — page-aware posting/block access: the out-of-core store's
//!   record-id namespace and the delta-varint posting-list codec;
//! * [`value_index`] — the OPESS value index of §5.2: one sorted run of
//!   `(ciphertext, block id)` entries, duplicate keys in insertion order,
//!   answering range probes by two binary searches.

pub mod dsi;
pub mod paged;
pub mod sjoin;
pub mod tables;
pub mod value_index;

pub use dsi::{DsiLabeling, Interval};
pub use tables::{BlockTable, DsiIndexTable, Postings};
pub use value_index::ValueIndex;
