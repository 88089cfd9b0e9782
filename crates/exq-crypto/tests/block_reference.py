#!/usr/bin/env python3
"""Independent reference for the block-tag known answers in `known_answers.rs`.

Recomputes every sealed block the `BLOCK_TAGS` table pins from RFC 8439
alone, sharing no code with the crate: the AEAD is the `cryptography`
package's `ChaCha20Poly1305`, and the inputs are restated below.

    python3 crates/exq-crypto/tests/block_reference.py

prints the table's rows;

    python3 crates/exq-crypto/tests/block_reference.py --check

reads the table out of `known_answers.rs` beside this file and exits
non-zero unless every pinned tag is the reference's.

A sealed block is RFC 8439's AEAD under the block key and the block's
12-byte nonce, with the 12-byte AAD `"blocktag" || id` (id as 4
little-endian bytes): the ciphertext is the keystream from block counter 1
XORed over the plaintext, and the tag is the 16 bytes after it.
"""

import pathlib
import re
import sys

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

KEY = b"exq known-answer key, block tags"
IDS = [7, 0xFEDC_BA98]
LENGTHS = [0, 1, 16, 50, 64, 65, 200]


def plaintext(length):
    """Byte i of a known-answer plaintext is (31 i + 7) mod 256."""
    return bytes((31 * i + 7) % 256 for i in range(length))


def nonce(block_id, length):
    """The id and the length as 4 little-endian bytes each, then "tag!"."""
    return block_id.to_bytes(4, "little") + length.to_bytes(4, "little") + b"tag!"


def tag(block_id, length):
    aad = b"blocktag" + block_id.to_bytes(4, "little")
    sealed = ChaCha20Poly1305(KEY).encrypt(nonce(block_id, length), plaintext(length), aad)
    return sealed[-16:].hex()


def pinned():
    """The `(id, length, tag)` rows of `BLOCK_TAGS` in known_answers.rs."""
    source = (pathlib.Path(__file__).parent / "known_answers.rs").read_text()
    table = source[source.index("const BLOCK_TAGS"):]
    table = table[: table.index("];")]
    rows = re.findall(r'\((0x[0-9a-f_]+|\d+), (\d+), "([0-9a-f]{32})"\)', table)
    return [(int(i.replace("_", ""), 0), int(n), t) for i, n, t in rows]


def check():
    rows = pinned()
    want = {(i, n) for i in IDS for n in LENGTHS}
    if {(i, n) for i, n, _ in rows} != want or len(rows) != len(want):
        print(f"BLOCK_TAGS pins {len(rows)} rows, not one per id and length")
        return 1
    bad = [(i, n, t) for i, n, t in rows if tag(i, n) != t]
    for i, n, t in bad:
        print(f"id {i:#x}, {n} bytes: pinned {t}, RFC 8439 gives {tag(i, n)}")
    print(f"{len(rows) - len(bad)} of {len(rows)} pinned block tags are RFC 8439's")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for block_id in IDS:
        for length in LENGTHS:
            print(f'    (0x{block_id:_x}, {length}, "{tag(block_id, length)}"),')
