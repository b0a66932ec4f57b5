"""Minimal PNG codec: 8-bit RGB/RGBA in, 8-bit RGB out.

Only what the cell-image corpus needs. Decoding checks chunk CRCs and
reports the offending chunk and byte offset on failure, undoes any mix of
the five scanline filters in whole-array numpy steps (one per anti-diagonal
once a row is Average or Paeth), rejects images over MAX_PIXELS pixels or
2^14 in width + height and never inflates past the declared size. Encoding
writes type 0 scanlines at a fixed zlib level, so a pixel array gives the
same bytes everywhere.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DecodeError, UnsupportedFormatError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6
# Largest width * height decoded; bigger images are UnsupportedFormatError, and
# so are images over 2^14 in width + height: that caps an Average image's
# width + height - 1 wavefront steps, so thin images decode no slower than squares.
MAX_PIXELS = 1 << 24


def decode_rgb8(data: bytes) -> np.ndarray:
    """Decode a PNG byte string to a (height, width, 3) uint8 array.

    Accepts 8-bit truecolor (RGB) and truecolor-with-alpha (RGBA, alpha
    discarded). Raises DecodeError for malformed input, naming the chunk and
    offset, and UnsupportedFormatError for valid PNGs outside that subset,
    including images over MAX_PIXELS pixels or 2^14 in width + height.
    """
    if len(data) < len(_SIGNATURE) or data[:8] != _SIGNATURE:
        raise DecodeError("not a PNG: bad 8-byte signature at offset 0")

    pos = 8
    header = None
    idat = bytearray()
    seen_iend = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise DecodeError(f"truncated chunk header at offset {pos}")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body_end = pos + 8 + length
        if body_end + 4 > len(data):
            raise DecodeError(
                f"truncated {ctype!r} chunk at offset {pos} (need {length} data bytes)"
            )
        body = data[pos + 8 : body_end]
        (crc,) = struct.unpack(">I", data[body_end : body_end + 4])
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != crc:
            raise DecodeError(f"bad CRC in {ctype!r} chunk at offset {pos}")

        if header is None:
            if ctype != b"IHDR":
                raise DecodeError(f"first chunk at offset {pos} is {ctype!r}, expected b'IHDR'")
            header = _parse_ihdr(body, pos)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            seen_iend = True
            break
        pos = body_end + 4

    if header is None:
        raise DecodeError("no IHDR chunk found")
    if not seen_iend:
        raise DecodeError(f"missing IEND chunk (stream ends at offset {len(data)})")
    if not idat:
        raise DecodeError("no IDAT chunks found")

    width, height, channels = header
    stride = width * channels
    expected = height * (1 + stride)
    # Inflate at most one byte past the declared size, so a small IDAT that
    # expands to gigabytes costs no more memory than the image it claims.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise DecodeError(f"IDAT zlib stream corrupt: {exc}") from exc
    if len(raw) > expected:
        raise DecodeError(
            f"IDAT decodes to more than {expected} bytes, expected {expected} "
            f"for {width}x{height}x{channels}"
        )
    if not inflater.eof:  # worded as zlib.decompress words a stream cut short
        raise DecodeError(
            "IDAT zlib stream corrupt: Error -5 while decompressing data: "
            "incomplete or truncated stream"
        )
    if len(raw) != expected:
        raise DecodeError(
            f"IDAT decodes to {len(raw)} bytes, expected {expected} "
            f"for {width}x{height}x{channels}"
        )

    del idat, inflater  # free the compressed stream and zlib's window before unfiltering
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + stride)
    pixels = _unfilter(rows, width, channels)
    return np.ascontiguousarray(pixels[:, :, :3])


def _parse_ihdr(body: bytes, pos: int) -> tuple[int, int, int]:
    if len(body) != 13:
        raise DecodeError(f"IHDR chunk at offset {pos} has length {len(body)}, expected 13")
    width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", body)
    if width < 1 or height < 1:
        raise DecodeError(f"IHDR at offset {pos} declares empty image {width}x{height}")
    if comp != 0 or filt != 0:
        raise DecodeError(
            f"IHDR at offset {pos}: compression={comp}, filter={filt}, both must be 0"
        )
    if depth != 8:
        raise UnsupportedFormatError(f"bit depth {depth} not supported (8-bit only)")
    if color not in (2, 6):
        raise UnsupportedFormatError(f"color type {color} not supported (RGB=2 or RGBA=6 only)")
    if interlace != 0:
        raise UnsupportedFormatError("Adam7 interlacing not supported")
    if width * height > MAX_PIXELS:
        raise UnsupportedFormatError(
            f"image {width}x{height} exceeds the {MAX_PIXELS}-pixel limit"
        )
    if width + height > 1 << 14:
        raise UnsupportedFormatError(f"image {width}x{height} exceeds the width + height limit 16384")
    return width, height, 4 if color == 6 else 3


def _unfilter(rows: np.ndarray, width: int, bpp: int) -> np.ndarray:
    """Undo per-scanline filters; returns (height, width, bpp) uint8.

    Every filter byte is checked first. Paeth picks left in a one-row image
    and up in a one-column one, so it is read there as Sub and as Up. Images
    with an Average or Paeth row left go to ``_unfilter_wavefront``; in the
    others, Sub rows are a running sum along x and a run of Up rows one down
    the columns from the None or Sub row above it (or from 0), all mod 256.
    """
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        y = int(bad[0])
        raise DecodeError(f"scanline {y} uses unknown filter type {int(ftypes[y])}")
    height = rows.shape[0]
    data = rows[:, 1:].reshape(height, width, bpp)
    if width == 1 or height == 1:
        ftypes = np.where(ftypes == 4, 2 if width == 1 else 1, ftypes)
    if np.any(ftypes >= 3):
        return _unfilter_wavefront(data, ftypes)
    # sums[0] is the zero row above the image and sums[1:] the image
    sums = np.zeros((height + 1, width, bpp), dtype=np.uint8)
    out = sums[1:]
    out[...] = data
    sub = ftypes == 1
    out[sub] = np.cumsum(data[sub], axis=1, dtype=np.uint8)
    up = ftypes == 2
    if up.any():
        # anchor[y]: the last None or Sub row at or above y, or 0 if none is
        anchor = np.arange(height, dtype=np.int32)  # MAX_PIXELS < 2**31
        anchor[up] = 0
        np.maximum.accumulate(anchor, out=anchor)
        # sums[y + 1] becomes rows 0..y summed down each column, so row y
        # is that sum less the sum of the rows above its anchor
        np.cumsum(sums, axis=0, dtype=np.uint8, out=sums)
        out -= sums[anchor]
    return out


def _unfilter_wavefront(data: np.ndarray, ftypes: np.ndarray) -> np.ndarray:
    """Undo any mix of filters one anti-diagonal at a time.

    Pixel (y, x) reads only its left, up and up-left neighbours, so each
    anti-diagonal y + x = d is one vectorized step over its rows and
    channels. In the skewed copy, line d + 2 holds diagonal d contiguously:
    pixel (y, d - y) at slot y + 1, the row above at slot 0, and zero in
    slots that hold no pixel. Left and up are then line d + 1 at slots y + 1
    and y, up-left is line d at slot y. None rows go in as Sub rows of their
    differences along x. Average rows alone add their prediction, any other
    diagonal up-left plus ``_DELTAS`` at its key, offset by row type unless
    all are Paeth. Tall images run in bands of max(2 * width, 64) rows,
    so the skewed copy stays within three times a band's bytes or a fixed size.
    """
    height, width, bpp = data.shape
    out = np.empty_like(data)
    band = min(height, max(2 * width, 64))
    skew = np.zeros((band + width + 1, band + 1, bpp), dtype=np.uint8)
    s_line, s_slot, _ = skew.strides
    pixels = np.lib.stride_tricks.as_strided(
        skew[2, 1:], shape=(band, width, bpp), strides=(s_line + s_slot, s_line, 1))
    lines = skew.reshape(len(skew), -1)
    for r0 in range(0, height, band):
        kind_of = ftypes[r0 : r0 + band]
        n_rows = len(kind_of)
        pixels[:n_rows] = data[r0 : r0 + n_rows]
        none = np.flatnonzero(kind_of == 0)
        pixels[none, 1:] -= data[r0 + none, :-1]
        kind_of = np.maximum(kind_of, 1)
        skew[1 : width + 1, 0] = out[r0 - 1] if r0 else 0
        block = (kind_of % 4).astype(np.intp).repeat(bpp) * 511**2
        kinds = kind_of.tolist()
        # rows y0..y1 - 1 share one filter type exactly when run[y0] == run[y1 - 1]
        run = np.cumsum(np.diff(kind_of, prepend=kind_of[:1]) != 0).tolist()
        steps = zip(lines, lines[1:], lines[2 : n_rows + width + 1])
        for d, (line0, line1, line2) in enumerate(steps):
            y0, y1 = max(0, d - width + 1), min(n_rows, d + 1)
            lo, hi = y0 * bpp, y1 * bpp
            cur, left, up = line2[lo + bpp : hi + bpp], line1[lo + bpp : hi + bpp], line1[lo:hi]
            kind = kinds[y0] if run[y0] == run[y1 - 1] else 0  # 0: rows of several types
            if kind == 3:  # (left + up) >> 1 without leaving uint8
                cur += (left & up) + ((left ^ up) >> 1)
            else:
                upleft = line0[lo:hi]
                key = _KEY_LEFT.take(left)
                key += up
                key -= _KEY_UPLEFT.take(upleft)
                if kind != 4:  # Paeth's block is at offset 0
                    key += block[lo:hi]
                cur += upleft + _DELTAS.take(key)
        out[r0 : r0 + n_rows] = pixels[:n_rows]
    return out


def _deltas() -> np.ndarray:
    """Each filter's prediction minus up-left, mod 256, from dl = left - upleft
    and du = up - upleft alone: entry dl * 511 + du of type t's block at
    t % 4 * 511**2 (Paeth's ties go left, then up; its negative keys wrap)."""
    diff = np.arange(-255, 256, dtype=np.int16)
    dl, du = diff[:, None], diff[None, :]
    pa, pb, pc = np.abs(du), np.abs(dl), np.abs(dl + du)  # p - left, p - up, p - upleft
    paeth = np.where((pa <= pb) & (pa <= pc), dl, np.where(pb <= pc, du, 0))
    blocks = np.stack(np.broadcast_arrays(paeth, dl, du, (dl + du) >> 1))
    return np.roll(blocks.astype(np.uint8).reshape(-1), -(255 * 511 + 255))


_DELTAS = _deltas()
# a key's left and up-left terms, looked up: 511 * k and 512 * k for each byte k
_KEY_LEFT, _KEY_UPLEFT = np.arange(256, dtype=np.intp) * np.array([[511], [512]], dtype=np.intp)


def encode_rgb8(pixels: np.ndarray) -> bytes:
    """Encode a (height, width, 3) uint8 array as deterministic PNG bytes."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8 array, got {pixels.shape} {pixels.dtype}")
    height, width = pixels.shape[:2]
    filtered = np.zeros((height, 1 + width * 3), dtype=np.uint8)
    filtered[:, 1:] = pixels.reshape(height, width * 3)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    out = bytearray(_SIGNATURE)
    out += _chunk(b"IHDR", ihdr)
    out += _chunk(b"IDAT", zlib.compress(filtered.tobytes(), _ZLIB_LEVEL))
    out += _chunk(b"IEND", b"")
    return bytes(out)


def _chunk(ctype: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)
