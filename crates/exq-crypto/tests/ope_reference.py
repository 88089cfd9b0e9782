#!/usr/bin/env python3
"""Independent reference for the known answers in `known_answers.rs`.

Recomputes the order-preserving function of `exq_crypto::ope` from its
definition alone, sharing no code with the crate: the ChaCha20 block comes
from the `cryptography` package, the split rule is restated below.

    python3 crates/exq-crypto/tests/ope_reference.py

prints every constant the two OPE known-answer tests pin.

The function: a node of the tree is named by its depth d (0 at the root,
64 at a leaf) and the low end `dlo` of its domain, which halves exactly. Its
coin is the first 16 bytes, little-endian, of the ChaCha20 block under the
OPE key with block counter d and 12-byte nonce `"coin" || dlo` (dlo as 8
little-endian bytes). An inner node over domain [dlo, dhi] and range
[rlo, rhi] gives its left half `rl = dl + coin % (r - dl - dr + 1)` range
values, where dl and dr are the sizes of the two domain halves and r the
size of the range; a leaf places its one value at `rlo + coin % r`.
"""

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

KEY = b"exq known-answer key for the OPE"
RANGE_BITS = 96


def coin(depth, dlo):
    # `cryptography` takes a 16-byte nonce: the 4-byte block counter, then
    # the RFC 7539 nonce.
    nonce = depth.to_bytes(4, "little") + b"coin" + dlo.to_bytes(8, "little")
    block = Cipher(algorithms.ChaCha20(KEY, nonce), mode=None).encryptor().update(bytes(16))
    return int.from_bytes(block, "little")


def encrypt(x):
    depth, dlo, dhi, rlo, rhi = 0, 0, 2**64 - 1, 0, 2**RANGE_BITS - 1
    while True:
        c = coin(depth, dlo)
        r = rhi - rlo + 1
        if dlo == dhi:
            return rlo + c % r
        dmid = dlo + (dhi - dlo) // 2
        dl, dr = dmid - dlo + 1, dhi - dmid
        rl = dl + c % (r - dr - dl + 1)
        if x <= dmid:
            dhi, rhi = dmid, rlo + rl - 1
        else:
            dlo, rlo = dmid + 1, rlo + rl
        depth += 1


def hex_grouped(v):
    """`v` as a Rust literal, in groups of four hex digits."""
    digits = f"{v:x}"
    groups = []
    while digits:
        groups.insert(0, digits[-4:])
        digits = digits[:-4]
    return "0x" + "_".join(groups)


# The first and the last (fifth) weight's displacement of 37.0 in the
# known-answer plan. They come from the plan's `rng` and the value gap,
# not from the OPE key.
DISPLACED = 0xC042_822D_1315_F281
DISPLACED_LAST = 0xC042_A204_CD8A_46CF

if __name__ == "__main__":
    print("ope_encrypt_known_answers:")
    for x in [0, 1, DISPLACED, 2**64 - 1]:
        print(f"    ({hex_grouped(x)}, {hex_grouped(encrypt(x))}),")
    print("opess_equality_band_known_answer:")
    print(f"    lo: {hex_grouped(encrypt(DISPLACED))},")
    print(f"    hi: {hex_grouped(encrypt(DISPLACED_LAST))},")
