#!/usr/bin/env python3
"""Independent reference for the golden reply table in `equivalence.rs`.

Until protocol version 6 a reply's text held an element for each block it
shipped, `<_exq_en[c] id="N"/>` (the bracket keeps this file from naming
it), and since then a reply carries each block's byte offset in a text
without them. `golden_replies_v5.tsv.gz`, beside this file, holds the
replies to every query of the table as the last version-5 server (commit
83e94ba) wrote them: database, query, shipped block ids and reply text,
tab-separated, one reply a line. This script cuts each block's element
out of its reply's text with Python's `re`, sharing no code with the
crate, and derives what the table pins: the CRC-32 of the text left
(`zlib.crc32`), the blocks in the order their elements stood, and the
byte offset each one stood at in the text left.

    python3 crates/exq-crypto/tests/golden_reference.py

prints the table's rows;

    python3 crates/exq-crypto/tests/golden_reference.py --check

reads `GOLDEN_REPLIES` out of `crates/exq-core/tests/equivalence.rs` and
exits non-zero unless every row is the reference's.

Each version-5 reply shipped exactly the blocks whose elements its text
held, by id: that is checked too, so the order derived here is the
shipped set's, not a guess.
"""

import gzip
import pathlib
import re
import sys
import zlib

HERE = pathlib.Path(__file__).resolve().parent
DUMP = HERE / "golden_replies_v5.tsv.gz"
TABLE = HERE.parent.parent / "exq-core" / "tests" / "equivalence.rs"
BLOCK = re.compile(r'<_exq_en[c] id="(\d+)"/>')


def derive(text):
    """`text` with each block's element cut out: (crc, ids, offsets)."""
    kept, ids, offsets, at = [], [], [], 0
    length = 0
    for m in BLOCK.finditer(text):
        piece = text[at : m.start()]
        kept.append(piece)
        length += len(piece.encode())
        ids.append(int(m.group(1)))
        offsets.append(length)
        at = m.end()
    kept.append(text[at:])
    stripped = "".join(kept).encode()
    return zlib.crc32(stripped) & 0xFFFF_FFFF, ids, offsets


def rows():
    out = []
    with gzip.open(DUMP, "rt", encoding="utf-8") as f:
        for line in f:
            db, query, shipped, text = line.rstrip("\n").split("\t")
            shipped = [int(i) for i in shipped.split(",") if i]
            crc, ids, offsets = derive(text)
            if sorted(set(ids)) != shipped or len(set(ids)) != len(ids):
                sys.exit(f"{db} {query}: elements {ids}, shipped {shipped}")
            out.append((db, query, crc, ids, offsets))
    return out


def rust(row):
    db, query, crc, ids, offsets = row
    nums = lambda xs: "&[" + ", ".join(map(str, xs)) + "]"
    return f'    ("{db}", "{query}", 0x{crc:08x}, {nums(ids)}, {nums(offsets)}),'


def main():
    want = [rust(r) for r in rows()]
    if "--check" not in sys.argv[1:]:
        print("\n".join(want))
        return
    source = TABLE.read_text()
    table = source[source.index("const GOLDEN_REPLIES") :]
    table = table[table.index("\n") + 1 : table.index("\n];")]
    got = [line for line in table.splitlines() if line.strip()]
    if got != want:
        for g, w in zip(got, want):
            if g != w:
                sys.exit(f"pinned:    {g}\nreference: {w}")
        sys.exit(f"{len(got)} rows pinned, {len(want)} derived")
    print(f"{len(want)} golden rows equal the reference")


if __name__ == "__main__":
    main()
