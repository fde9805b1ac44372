"""How artifacts reach disk: one CSV writer and one JSON writer.

A CSV artifact is an optional ``# comment`` line, a header line and one line
per row. `write_csv` takes the columns as numpy arrays and writes them
``CHUNK_ROWS`` rows at a time, so no artifact is ever held in memory as text.
`csv_file` writes one whose rows arrive in several calls, as a solver hands
out its samples; a CSV that fails part-way is deleted, never left partial.
A float column is written as ``'%.17g' % v`` would write each value; a bytes
column (dtype ``S``, made by `text`) is written as it stands. Fields that
repeat, such as a time shared by many lines or a node id shared by many
times, are formatted once and broadcast.

The ``%.17g`` text is computed in numpy, byte for byte. For finite v with
1e-6 < |v| < 1e16 the decimal exponent E of v lies in [-6, 15], so 10**k is
an exact double for the scale k = 16 - E <= 22. Dekker's error-free product
(Veltkamp's split, Dekker 1971, Numer. Math. 18) gives v * 10**k = hi + lo
exactly. Exact comparisons of (hi, lo) against 1e16 and 1e17 correct the
estimate E = floor(log10|v|). hi is then an even integer of at least 2**53,
so D = hi + rint(lo) is the correctly rounded 17-digit integer, with the
exact ties going to even as ``%`` rounds them; a rounding that carries to
10**17 moves to the next decade. The digits of D are laid out in a fixed
32-byte slot per value (fixed notation for -4 <= E < 17, else exponent
notation; trailing zeros and a bare point dropped; a sign for negative
values) with NUL bytes where the text has no character. The NULs are deleted
from about 256 KB of lines at a time, so compacting a block costs two copies
of a slice, not of the block. Zero, -0, subnormals, inf, nan and
every value outside that range are formatted by ``%`` itself.

The exactness rests on IEEE binary64 arithmetic rounding to nearest, and on
each numpy ufunc call rounding its own result: no product and sum are
contracted into one fused multiply-add across calls. Bytes and words are
read in little-endian order whatever the machine's order. JSON artifacts are
``indent=2`` with a trailing newline.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from functools import partial

import numpy as np

# rows formatted at a time; larger blocks are no faster and raise peak
# memory. A formatted block is compacted and written _SLICE_BYTES at a time.
CHUNK_ROWS = 4096
_SLICE_BYTES = 1 << 18
# rows worth handing a csv_file writer at once: each call sets up a block
# buffer of its own, which costs as much as formatting hundreds of rows
_WRITE_ROWS = 1 << 16

_WORD = np.dtype("<u8")
_SLOT_WORDS = 4  # one float's 32-byte slot


def write_csv(path, header: str, columns, comment: str | None = None) -> None:
    """Write the ``# comment`` line if given, ``header``, then one line per row.

    ``columns`` are arrays that broadcast together; the rows are the elements
    of their broadcast shape in C order, and a row's fields are joined by
    commas. A float column is written ``%.17g``; a bytes column, which must
    hold no NUL byte, is written as it stands.
    """
    with csv_file(path, header, comment) as write_rows:
        write_rows(columns)


@contextmanager
def csv_file(path, header: str, comment: str | None = None):
    """Open ``path`` with the ``# comment`` line if given and ``header``, and
    give a function that writes further rows, from columns as `write_csv`
    takes them, each time it is called. If the block raises, the file is
    closed and deleted."""
    f = open(path, "wb")
    try:
        with f:
            if comment is not None:
                f.write(f"# {comment}\n".encode())
            f.write(f"{header}\n".encode())
            yield partial(_write_rows, f)
    except BaseException:
        os.remove(path)
        raise


def rows_per_write(lines: int) -> int:
    """How many indices of a column's first axis, each holding ``lines``
    rows, to hand a `csv_file` writer at once: whole blocks, about
    ``_WRITE_ROWS`` rows in all."""
    step = _block_rows(lines)
    return step * max(1, _WRITE_ROWS // (step * lines))


def _block_rows(lines: int) -> int:
    """The indices of a column's first axis formatted in one block, when each
    holds ``lines`` rows."""
    return max(1, CHUNK_ROWS // max(lines, 1))


def _write_rows(f, columns) -> None:
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    lines = math.prod(shape[1:])  # per index of the first axis
    step = _block_rows(lines)
    fields, words = [], 0
    for k, col in enumerate(columns):
        data = np.broadcast_to(col, shape)
        if data.dtype.kind == "S":
            size = data.dtype.itemsize // 8 + 1  # the text, then its separator
        elif data.dtype.kind == "f":
            size = _SLOT_WORDS
        else:
            raise TypeError(f"CSV columns are float or bytes arrays, not {data.dtype}")
        # the separator ends the field's last word
        sep = np.uint64(ord("\n" if k == len(columns) - 1 else ",")) << np.uint64(56)
        fields.append((data, slice(words, words + size), sep))
        words += size
    buf = np.zeros((step * lines, words), _WORD)
    for _, where, sep in fields:
        buf[:, where.stop - 1] = sep
    per_slice = max(1, _SLICE_BYTES // (8 * words))  # lines compacted at a time
    for first in range(0, shape[0], step):
        block = buf[:(min(first + step, shape[0]) - first) * lines]
        for data, where, sep in fields:
            part = np.ascontiguousarray(data[first:first + step]).reshape(-1)
            if data.dtype.kind == "S":
                width = part.dtype.itemsize
                block.view(np.uint8)[:, 8 * where.start:8 * where.start + width] = (
                    part.view(np.uint8).reshape(-1, width))
                continue
            slot = block[:, where]
            _g17(part.astype(np.float64, copy=False), slot)
            slot[:, -1] |= sep
        for line in range(0, len(block), per_slice):
            f.write(block[line:line + per_slice].tobytes().translate(None, b"\0"))


def text(fmt: str, values) -> np.ndarray:
    """``fmt % v`` for each v of ``values``, as a bytes column; None is an
    absent field, written empty. A field that repeats is formatted once per
    distinct value by indexing such a column."""
    return np.array([b"" if v is None else (fmt % v).encode() for v in values], dtype=bytes)


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# the %.17g kernel

_E_MIN, _E_MAX = -6, 16  # decimal exponents of its results; 16 only by a carry
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's constant for binary64


def _split(a):
    """a = hi + lo with hi holding the upper 26 bits of a's significand."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, k):
    """a * 10**k as hi + lo exactly: Dekker's product, 10**k split in advance."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _digit_words():
    """The ASCII text of 0000..9999 as little-endian 32-bit words, and the
    count of trailing zeros of each four-digit group (4 for 0000)."""
    n = np.arange(10000, dtype=np.uint16)
    chars = (n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    zeros = sum(n % 10 ** j == 0 for j in range(1, 5))
    return chars.view("<u4").ravel().astype(np.uint64), zeros


_GROUP, _GROUP_ZEROS = _digit_words()
# the lead digit as the last byte of a word
_LEAD = np.array([(ord("0") + d) << 56 for d in range(10)], dtype=np.uint64)


def _slot_tables():
    """Per layout code (exponent, significant digits, sign), which digit bytes
    a slot keeps from each of its two digit copies, and its fixed bytes.

    Slot bytes: 0 the sign; 2-6 the "0." and zeros of fixed notation below 1,
    right-aligned; 7-24 the digits with their point; 25-28 the exponent. Copy
    A holds digit j (1-17) at byte 6 + j, copy B one byte later, so the
    digits before the point come from A and those after it from B.
    """
    codes = (_E_MAX - _E_MIN + 1) * 18 * 2
    keep_a, keep_b, fixed = (np.zeros((codes, 8 * _SLOT_WORDS), np.uint8) for _ in range(3))
    for e in range(_E_MIN, _E_MAX + 1):
        for digits in range(1, 18):
            for negative in (0, 1):
                code = ((e - _E_MIN) * 18 + digits) * 2 + negative
                fixed[code, 0] = ord("-") * negative
                if -4 <= e < 0:
                    lead = b"0." + b"0" * (-e - 1)
                    fixed[code, 7 - len(lead):7] = list(lead)
                    keep_a[code, 7:7 + digits] = 0xFF
                    continue
                point = e + 1 if e >= 0 else 1  # digits before the point
                keep_a[code, 7:7 + point] = 0xFF
                if digits > point:
                    fixed[code, 7 + point] = ord(".")
                    keep_b[code, 8 + point:8 + digits] = 0xFF
                if e < -4:
                    fixed[code, 25:29] = list(b"e%+03d" % e)
    return tuple(np.ascontiguousarray(t.view(_WORD).T) for t in (keep_a, keep_b, fixed))


_KEEP_A, _KEEP_B, _FIXED = _slot_tables()


def _g17(v, out) -> None:
    """The text of ``'%.17g' % x`` for each x of the float64 vector ``v``, in
    the NUL-padded 32-byte rows of ``out`` (a (v.size, 4) array of words)."""
    a = np.abs(v)
    exact = (a > 1e-6) & (a < 1e16)  # the double 1e-6 lies below 10**-6
    if exact.all():
        _g17_exact(v, a, out)
        return
    inside = np.flatnonzero(exact)
    part = np.empty((inside.size, _SLOT_WORDS), _WORD)
    _g17_exact(v[inside], a[inside], part)
    out[inside] = part
    rest = np.flatnonzero(~exact)
    text = np.array([b"%.17g" % x for x in v[rest].tolist()], dtype=f"S{8 * _SLOT_WORDS}")
    out[rest] = text.view(_WORD).reshape(-1, _SLOT_WORDS)


def _g17_exact(v, a, out) -> None:
    """`_g17` for values with 1e-6 < |v| < 1e16; a = |v|."""
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX - 1).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    while True:  # until 1e16 <= hi + lo < 1e17, compared exactly
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        wrong = np.flatnonzero(low | high)
        if not wrong.size:
            break
        e[wrong] += high[wrong].astype(np.intp) - low[wrong]
        hi[wrong], lo[wrong] = _scaled(a[wrong], 16 - e[wrong])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry

    # digit 1, then four groups of four
    top = d // 10 ** 8
    g4 = d - top * 10 ** 8
    lead = top // 10 ** 8
    g2 = top - lead * 10 ** 8
    g1, g2 = g2 // 10 ** 4, g2 % 10 ** 4
    g3, g4 = g4 // 10 ** 4, g4 % 10 ** 4
    zeros = _GROUP_ZEROS[g4]
    rest = np.flatnonzero(g4 == 0)
    for group in (g3, g2, g1):
        if not rest.size:
            break
        g = group[rest]
        zeros[rest] += _GROUP_ZEROS[g]
        rest = rest[g == 0]
    code = ((e - _E_MIN) * 18 + 17 - zeros) * 2 + (v < 0)

    # copy A: digit 1 at byte 7, digits 2-17 at bytes 8-23; copy B: A shifted by a byte
    a0 = _LEAD[lead]
    a1 = _GROUP[g1] | (_GROUP[g2] << np.uint64(32))
    a2 = _GROUP[g3] | (_GROUP[g4] << np.uint64(32))
    up, down = np.uint64(8), np.uint64(56)
    out[:, 0] = (a0 & _KEEP_A[0][code]) | _FIXED[0][code]
    out[:, 1] = (a1 & _KEEP_A[1][code]) | (((a0 >> down) | (a1 << up)) & _KEEP_B[1][code]) \
        | _FIXED[1][code]
    out[:, 2] = (a2 & _KEEP_A[2][code]) | (((a1 >> down) | (a2 << up)) & _KEEP_B[2][code]) \
        | _FIXED[2][code]
    out[:, 3] = ((a2 >> down) & _KEEP_B[3][code]) | _FIXED[3][code]
