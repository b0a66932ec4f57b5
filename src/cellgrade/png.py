"""Minimal PNG codec: 8-bit RGB/RGBA in, 8-bit RGB out.

Only what the cell-image corpus needs. Decoding checks chunk CRCs and
reports the offending chunk and byte offset on failure, accepts any mix of
the five scanline filters, rejects images over MAX_PIXELS pixels and never
inflates more than the header declares. Encoding always writes unfiltered
(type 0) scanlines with a fixed zlib level, so the same pixel array
produces the same bytes on every platform.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DecodeError, UnsupportedFormatError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6
# Largest width * height decoded; bigger images are UnsupportedFormatError.
MAX_PIXELS = 1 << 24


def decode_rgb8(data: bytes) -> np.ndarray:
    """Decode a PNG byte string to a (height, width, 3) uint8 array.

    Accepts 8-bit truecolor (RGB) and truecolor-with-alpha (RGBA, alpha
    discarded). Raises DecodeError for malformed input, naming the chunk and
    offset, and UnsupportedFormatError for valid PNGs outside that subset,
    including images over MAX_PIXELS pixels.
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
    return width, height, 4 if color == 6 else 3


def _unfilter(rows: np.ndarray, width: int, bpp: int) -> np.ndarray:
    """Undo per-scanline filters; returns (height, width, bpp) uint8.

    Every filter byte is checked first. Images without Average or Paeth rows
    are rebuilt row by row, since None/Sub/Up rows vectorize along the row;
    any other image is rebuilt by ``_unfilter_wavefront``.
    """
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        y = int(bad[0])
        raise DecodeError(f"scanline {y} uses unknown filter type {int(ftypes[y])}")
    if np.any(ftypes >= 3):
        return _unfilter_wavefront(rows, ftypes, width, bpp)
    height = rows.shape[0]
    stride = width * bpp
    out = np.zeros((height, stride), dtype=np.uint8)
    zero_row = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        ftype = int(ftypes[y])
        line = rows[y, 1:]
        prev = out[y - 1] if y > 0 else zero_row
        if ftype == 0:
            out[y] = line
        elif ftype == 1:
            out[y] = np.cumsum(line.reshape(width, bpp), axis=0, dtype=np.uint8).reshape(-1)
        else:
            out[y] = line + prev
    return out.reshape(height, width, bpp)


def _unfilter_wavefront(rows: np.ndarray, ftypes: np.ndarray, width: int, bpp: int) -> np.ndarray:
    """Undo any mix of filters one anti-diagonal at a time.

    Pixel (y, x) reads only its left (y, x-1), up (y-1, x) and up-left
    (y-1, x-1) neighbours, so the pixels on one anti-diagonal y + x = d are
    independent and each diagonal is one vectorized int16 step over all its
    rows and channels: height + width - 1 steps in all, each row predicted
    by its own filter byte. Diagonal d is gathered into a flat line of
    (height + 1) * bpp values, one pixel per row, shifted by one row so that
    row -1 and the pixels left of x = 0 read as the zero border. Left and up
    are then line d - 1 at rows y and y - 1, and up-left is line d - 2 at
    row y - 1, all contiguous slices, and only three lines are kept.
    """
    height, line_len = rows.shape
    out = np.empty((height, width, bpp), dtype=np.uint8)
    # Pixel (y + 1, x - 1), the next one on the diagonal of (y, x), sits
    # src_step bytes further in the filtered rows and dst_step pixels
    # further in the output.
    src = np.lib.stride_tricks.as_strided(
        rows.reshape(-1), shape=(rows.size - bpp + 1, bpp), strides=(1, 1), writeable=False)
    src_step = line_len - bpp
    dst = out.reshape(-1, bpp)
    dst_step = max(width - 1, 1)
    lines = np.zeros((3, (height + 1) * bpp), dtype=np.int16)
    kinds = ftypes.tolist()
    # run_end[y]: first row after y whose filter type differs from row y's
    run_end = [height] * height
    for y in range(height - 2, -1, -1):
        run_end[y] = run_end[y + 1] if kinds[y] == kinds[y + 1] else y + 1
    # Diagonals crossing rows of several types predict
    # (wa * left + wb * up) >> shift, which covers types 0-3, and take the
    # Paeth predictor where is_paeth is set. One entry per row and channel.
    per_value = ftypes.repeat(bpp)
    wa = np.isin(per_value, (1, 3)).astype(np.int16)
    wb = np.isin(per_value, (2, 3)).astype(np.int16)
    shift = (per_value == 3).astype(np.int16)
    is_paeth = per_value == 4
    for d in range(height + width - 1):
        y0, y1 = max(0, d - width + 1), min(height, d + 1)
        n = y1 - y0
        lo, hi = y0 * bpp, y1 * bpp
        prev = lines[(d - 1) % 3]
        left, up = prev[lo + bpp : hi + bpp], prev[lo:hi]
        cur = lines[d % 3][lo + bpp : hi + bpp]
        s0 = y0 * line_len + 1 + (d - y0) * bpp
        cur.reshape(n, bpp)[...] = src[s0 : s0 + (n - 1) * src_step + 1 : src_step]
        if run_end[y0] >= y1:
            kind = kinds[y0]
            if kind == 1:
                cur += left
            elif kind == 2:
                cur += up
            elif kind == 3:
                pred = left + up
                pred >>= 1
                cur += pred
            elif kind == 4:
                cur += _paeth(left, up, lines[(d - 2) % 3][lo:hi])
        else:
            pred = left * wa[lo:hi]
            pred += up * wb[lo:hi]
            pred >>= shift[lo:hi]
            if is_paeth[lo:hi].any():
                upleft = lines[(d - 2) % 3][lo:hi]
                pred = np.where(is_paeth[lo:hi], _paeth(left, up, upleft), pred)
            cur += pred
        cur &= 0xFF
        p0 = y0 * width + d - y0
        dst[p0 : p0 + (n - 1) * dst_step + 1 : dst_step] = cur.reshape(n, bpp)
    return out


def _paeth(left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    """Paeth predictor on int16 arrays; ties prefer left, then up."""
    dl = up - upleft  # p - left, with p = left + up - upleft
    du = left - upleft  # p - up
    dc = np.abs(dl + du)  # p - upleft
    np.abs(dl, out=dl)
    np.abs(du, out=du)
    return np.where(dl <= np.minimum(du, dc), left, np.where(du <= dc, up, upleft))


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
