"""PNG codec tests, including an independent encoder for all filter types."""

import re
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgrade import data, harness, imaging, png
from cellgrade.errors import DecodeError, UnsupportedFormatError
from cellgrade.knn import EUCLIDEAN

SIG = b"\x89PNG\r\n\x1a\n"


def chunk(ctype: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))


def paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def encode_with_filter(pixels: np.ndarray, ftype, color_type: int = 2) -> bytes:
    """Test-side encoder: applies filter ``ftype`` to every scanline, or
    ``ftype[y]`` to scanline y when given one type per row."""
    h, w, ch = pixels.shape
    ftypes = [ftype] * h if isinstance(ftype, int) else list(ftype)
    assert len(ftypes) == h
    bpp = ch
    raw = bytearray()
    prev = [0] * (w * bpp)
    for y in range(h):
        line = [int(v) for v in pixels[y].reshape(-1)]
        ft = ftypes[y]
        raw.append(ft)
        for i in range(len(line)):
            left = line[i - bpp] if i >= bpp else 0
            up = prev[i]
            upleft = prev[i - bpp] if i >= bpp else 0
            if ft == 0:
                out = line[i]
            elif ft == 1:
                out = line[i] - left
            elif ft == 2:
                out = line[i] - up
            elif ft == 3:
                out = line[i] - (left + up) // 2
            else:
                out = line[i] - paeth(left, up, upleft)
            raw.append(out % 256)
        prev = line
    return png_file(w, h, bytes(raw), color_type)


def png_file(w: int, h: int, raw: bytes, color_type: int = 2) -> bytes:
    """A PNG with the given IHDR size and the zlib-compressed ``raw`` as IDAT."""
    return png_with_idat(w, h, zlib.compress(raw), color_type)


def png_with_idat(w: int, h: int, idat: bytes, color_type: int = 2) -> bytes:
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_decode_every_filter_type(ftype):
    rng = np.random.default_rng(100 + ftype)
    pixels = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    decoded = png.decode_rgb8(encode_with_filter(pixels, ftype))
    np.testing.assert_array_equal(decoded, pixels)


def test_rgba_alpha_discarded():
    rng = np.random.default_rng(4)
    pixels = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    decoded = png.decode_rgb8(encode_with_filter(pixels, 2, color_type=6))
    np.testing.assert_array_equal(decoded, pixels[:, :, :3])


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(16, 11, 3), dtype=np.uint8)
    np.testing.assert_array_equal(png.decode_rgb8(png.encode_rgb8(pixels)), pixels)


def test_encode_is_deterministic():
    pixels = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
    assert png.encode_rgb8(pixels) == png.encode_rgb8(pixels.copy())


def test_encode_rejects_a_float_array():
    with pytest.raises(ValueError, match="uint8 array, got \\(2, 2, 3\\) float64"):
        png.encode_rgb8(np.zeros((2, 2, 3)))


def test_bad_signature():
    with pytest.raises(DecodeError, match="signature"):
        png.decode_rgb8(b"JFIF" + b"\x00" * 40)


def test_truncated_stream():
    data = png.encode_rgb8(np.zeros((3, 3, 3), dtype=np.uint8))
    with pytest.raises(DecodeError, match="truncated"):
        png.decode_rgb8(data[:20])


def test_crc_corruption_names_chunk_and_offset():
    data = bytearray(png.encode_rgb8(np.full((4, 4, 3), 70, dtype=np.uint8)))
    idat_pos = data.index(b"IDAT") - 4
    data[idat_pos + 10] ^= 0xFF
    with pytest.raises(DecodeError, match=r"CRC in b'IDAT' chunk at offset \d+"):
        png.decode_rgb8(bytes(data))


def test_unsupported_bit_depth():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
    data = SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(b"\x00" * 26)) + chunk(b"IEND", b"")
    with pytest.raises(UnsupportedFormatError, match="bit depth 16"):
        png.decode_rgb8(data)


def test_unsupported_color_type():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    data = SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(b"\x00" * 6)) + chunk(b"IEND", b"")
    with pytest.raises(UnsupportedFormatError, match="color type 0"):
        png.decode_rgb8(data)


def test_unsupported_interlace():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
    data = SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(b"\x00" * 14)) + chunk(b"IEND", b"")
    with pytest.raises(UnsupportedFormatError, match="interlacing"):
        png.decode_rgb8(data)


def test_first_chunk_must_be_ihdr():
    data = SIG + chunk(b"sRGB", b"\x00") + chunk(b"IEND", b"")
    with pytest.raises(DecodeError, match="expected b'IHDR'"):
        png.decode_rgb8(data)


def ihdr_body(w: int = 2, h: int = 2, comp: int = 0, filt: int = 0) -> bytes:
    return struct.pack(">IIBBBBB", w, h, 8, 2, comp, filt, 0)


BLANK_IDAT = chunk(b"IDAT", zlib.compress(b"\x00" * 14))  # two blank rows of a 2x2 RGB image
NO_IEND = SIG + chunk(b"IHDR", ihdr_body()) + BLANK_IDAT


def png_with_ihdr(ihdr: bytes) -> bytes:
    return SIG + chunk(b"IHDR", ihdr) + BLANK_IDAT + chunk(b"IEND", b"")


MALFORMED_HEADERS = {
    "signature-only": (SIG, "^no IHDR chunk found$"),
    "no-idat": (SIG + chunk(b"IHDR", ihdr_body()) + chunk(b"IEND", b""), "^no IDAT chunks found$"),
    "no-iend": (NO_IEND, rf"^missing IEND chunk \(stream ends at offset {len(NO_IEND)}\)$"),
    "ihdr-12": (png_with_ihdr(ihdr_body()[:12]), "^IHDR chunk at offset 8 has length 12, expected 13$"),
    "ihdr-14": (png_with_ihdr(ihdr_body() + b"\x00"), "^IHDR chunk at offset 8 has length 14, expected 13$"),
    "empty": (png_with_ihdr(ihdr_body(0, 4)), "^IHDR at offset 8 declares empty image 0x4$"),
    "compression-1": (png_with_ihdr(ihdr_body(comp=1)),
                      "^IHDR at offset 8: compression=1, filter=0, both must be 0$"),
    "filter-1": (png_with_ihdr(ihdr_body(filt=1)),
                 "^IHDR at offset 8: compression=0, filter=1, both must be 0$"),
}


@pytest.mark.parametrize("name", MALFORMED_HEADERS)
def test_malformed_header_raises_decode_error(name):
    body, message = MALFORMED_HEADERS[name]
    with pytest.raises(DecodeError, match=message):
        png.decode_rgb8(body)


def test_knn_skips_malformed_headers(tmp_path):
    data.synth_generate(tmp_path, 8, 0.5, side=16, seed=2)
    for name, (body, _) in MALFORMED_HEADERS.items():
        (tmp_path / "Parasitized" / f"{name}.png").write_bytes(body)
    # a well-formed single-row PNG, refused from its header alone
    thin = png.encode_rgb8(np.zeros((1, 65536, 3), np.uint8))
    (tmp_path / "Uninfected" / "thin.png").write_bytes(thin)
    summary = harness.cmd_knn(tmp_path, "raw", EUCLIDEAN, [1], folds=2, out_prefix=str(tmp_path / "k"))
    assert summary["n_samples"] == 8
    reasons = {s["id"]: s["reason"] for s in summary["skipped"]}
    assert reasons.pop("Uninfected/thin.png") == "image 65536x1 exceeds the width + height limit 16384"
    assert reasons.keys() == {f"Parasitized/{name}.png" for name in MALFORMED_HEADERS}
    for name, (_, message) in MALFORMED_HEADERS.items():
        assert re.match(message, reasons[f"Parasitized/{name}.png"]), name


def test_corrupt_zlib_stream():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    data = SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", b"not zlib at all") + chunk(b"IEND", b"")
    with pytest.raises(DecodeError, match="zlib"):
        png.decode_rgb8(data)


def test_wrong_decompressed_size():
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    data = SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(b"\x00" * 10)) + chunk(b"IEND", b"")
    with pytest.raises(DecodeError, match="expected 52"):
        png.decode_rgb8(data)


def test_unknown_scanline_filter():
    for w, h, raw, message in [
        (1, 1, b"\x07\x01\x02\x03", "scanline 0 uses unknown filter type 7"),
        # the first bad row is named, even after Paeth and Average rows
        (1, 4, b"\x04abc\x03abc\x09abc\x05abc", "scanline 2 uses unknown filter type 9"),
    ]:
        with pytest.raises(DecodeError, match=f"^{message}$"):
            png.decode_rgb8(png_file(w, h, raw))


def test_truncated_zlib_stream():
    data = png_with_idat(4, 4, zlib.compress(b"\x00" * 52)[:-6])
    with pytest.raises(DecodeError, match="incomplete or truncated stream"):
        png.decode_rgb8(data)


@st.composite
def filtered_images(draw):
    """Random RGB/RGBA pixels, 1-40 px a side, with per-row filter types."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    channels = draw(st.sampled_from([3, 4]))
    levels = draw(st.sampled_from([2, 3, 256]))  # few levels force Paeth ties
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = (rng.integers(0, levels, size=(h, w, channels)) * (255 // (levels - 1))).astype(np.uint8)
    # runs of one type; runs of length 1 give an independent type per row
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 40)), min_size=1))
    ftypes = [t for t, length in runs for _ in range(length)]
    ftypes = (ftypes * h)[:h]
    return pixels, ftypes


@settings(max_examples=150, deadline=None)
@given(filtered_images())
@example((np.arange(1 * 37 * 3, dtype=np.uint8).reshape(1, 37, 3), [4]))
@example((np.arange(29 * 1 * 4, dtype=np.uint8).reshape(29, 1, 4), [3, 4, 1] * 9 + [4, 0]))
# long Up runs: after a Sub anchor, and after a None anchor that follows Up
# rows with no anchor above them
@example(((np.arange(60 * 5 * 3) % 251).astype(np.uint8).reshape(60, 5, 3), [1] + [2] * 59))
@example(((np.arange(60 * 5 * 4) % 253).astype(np.uint8).reshape(60, 5, 4), [2] * 3 + [0] + [2] * 56))
# tall enough to run in three bands, with filter types mixed across their seams
@example(((np.arange(150 * 2 * 3) % 241).astype(np.uint8).reshape(150, 2, 3), [4, 3, 1, 2, 0] * 30))
# diagonals whose rows are all Sub, then all Up, ahead of the Paeth rows
@example(((np.arange(40 * 2 * 3) % 239).astype(np.uint8).reshape(40, 2, 3), [1, 1, 2, 2] + [4] * 36))
def test_decode_per_row_mixed_filters(case):
    pixels, ftypes = case
    color_type = 6 if pixels.shape[2] == 4 else 2
    decoded = png.decode_rgb8(encode_with_filter(pixels, ftypes, color_type))
    np.testing.assert_array_equal(decoded, pixels[:, :, :3])


def least_residual_filters(pixels: np.ndarray) -> list[int]:
    """libpng's heuristic: per row, the filter type whose residual bytes, read
    as signed, have the least sum of absolute values."""
    h, w, bpp = pixels.shape
    ftypes, prev = [], np.zeros(w * bpp, dtype=np.int32)
    for line in pixels.reshape(h, w * bpp).astype(np.int32):
        left = np.concatenate([np.zeros(bpp, np.int32), line[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, np.int32), prev[:-bpp]])
        p = left + prev - upleft
        pa, pb, pc = abs(p - left), abs(p - prev), abs(p - upleft)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, upleft))
        res = np.stack([line, line - left, line - prev, line - (left + prev) // 2, line - pred]) % 256
        ftypes.append(int(np.minimum(res, 256 - res).sum(axis=1).argmin()))
        prev = line
    return ftypes


def test_decode_synth_cells_under_least_residual_filters(tmp_path):
    """Smooth cell images, as in the NIH corpus: the chooser picks long runs of
    Paeth and Average rows, which the random per-row mix above rarely draws."""
    data.synth_generate(tmp_path, 10, 0.5, side=64, seed=3)
    ftypes = []
    for i, path in enumerate(sorted(tmp_path.rglob("*.png"))):
        side = 100 + 5 * i
        cell = imaging.resize_bilinear(imaging.decode_image(path.read_bytes()), side, side)
        pixels = np.round(cell.values * 255.0).astype(np.uint8)
        rows = least_residual_filters(pixels)
        ftypes += rows
        np.testing.assert_array_equal(png.decode_rgb8(encode_with_filter(pixels, rows)), pixels)
    counts = np.bincount(ftypes, minlength=5)
    assert counts[3] + counts[4] > 0.9 * counts.sum(), counts


def test_delta_table_gives_every_filters_prediction():
    """upleft + _DELTAS[t % 4 * 511**2 + dl * 511 + du], mod 256, is filter t's
    prediction for every (left, up, upleft) byte triple, dl and du taken from upleft."""
    byte = np.arange(256, dtype=np.int16)
    left, up = byte[:, None], byte[None, :]
    for upleft in range(256):
        p = left + up - upleft
        pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
        predictions = {
            1: np.broadcast_to(left, p.shape),
            2: np.broadcast_to(up, p.shape),
            3: (left + up) // 2,
            4: np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft)),
        }
        key = (left - upleft).astype(np.intp) * 511 + (up - upleft)
        for ftype, expected in predictions.items():
            got = (upleft + png._DELTAS[ftype % 4 * 511**2 + key].astype(np.int16)) % 256
            np.testing.assert_array_equal(got, expected, err_msg=f"filter {ftype} upleft {upleft}")


@pytest.mark.parametrize("height,width,channels", [(1, 300, 3), (300, 1, 4), (1, 1, 3)])
def test_thin_paeth_images_decode_without_the_wavefront(monkeypatch, height, width, channels):
    """Paeth picks left on a lone row and up in a lone column, so neither needs
    one step per anti-diagonal."""
    def refuse(*args):
        raise AssertionError("thin Paeth image sent to the wavefront")

    monkeypatch.setattr(png, "_unfilter_wavefront", refuse)
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8)
    decoded = png.decode_rgb8(encode_with_filter(pixels, 4, color_type=6 if channels == 4 else 2))
    np.testing.assert_array_equal(decoded, pixels[:, :, :3])


def decode_peak_over_output(rows: np.ndarray, width: int) -> float:
    """tracemalloc peak of decoding these filtered rows, over the output's bytes."""
    data = png_file(width, rows.shape[0], rows.tobytes())
    tracemalloc.start()
    try:
        pixels = png.decode_rgb8(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pixels.shape == (rows.shape[0], width, 3)
    return peak / pixels.nbytes


def test_paeth_decode_memory_is_bounded_by_the_image():
    side = 512
    rng = np.random.default_rng(6)
    rows = np.empty((side, 1 + side * 3), dtype=np.uint8)
    rows[:, 0] = 4
    rows[:, 1:] = rng.integers(0, 256, size=(side, side * 3), dtype=np.uint8)
    ratio = decode_peak_over_output(rows, side)
    assert ratio < 8, ratio


# the thinnest shapes the width + height limit accepts; a lone row cannot mix
# filter types, so 1 x 16383 is Paeth only
@pytest.mark.parametrize("rows_of,height,width", [
    ("paeth", 1, 16383), ("paeth", 16383, 1), ("paeth", 4096, 16),
    ("mixed", 16383, 1), ("mixed", 4096, 16),
])
def test_thin_image_decode_memory_is_bounded_by_the_image(rows_of, height, width):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 256, size=(height, 1 + width * 3), dtype=np.uint8)
    rows[:, 0] = 4 if rows_of == "paeth" else np.resize([3, 4, 1, 0, 2], height)
    ratio = decode_peak_over_output(rows, width)
    assert ratio < 8, ratio


def test_oversized_ihdr_is_unsupported_before_inflating():
    # 8000x8000 would be 192 MB of pixels; the IDAT is not even zlib, so
    # reaching the inflater would raise DecodeError instead
    data = png_with_idat(8000, 8000, b"not zlib at all")
    with pytest.raises(UnsupportedFormatError, match="8000x8000 exceeds"):
        png.decode_rgb8(data)
    side = 1 << 12  # exactly MAX_PIXELS passes the header check
    with pytest.raises(DecodeError, match="zlib"):
        png.decode_rgb8(png_with_idat(side, side, b"not zlib at all"))


@pytest.mark.parametrize("height,width", [(65536, 1), (1, 65536)])
def test_thin_ihdr_over_the_side_limit_is_unsupported_before_inflating(height, width):
    # the IDAT is not zlib, so reaching the inflater would raise DecodeError instead
    with pytest.raises(UnsupportedFormatError, match="width \\+ height limit"):
        png.decode_rgb8(png_with_idat(width, height, b"not zlib at all"))


@pytest.mark.parametrize("height,width", [(1, 16383), (16383, 1)])
def test_thin_average_images_decode_quickly(height, width):
    """One wavefront step per anti-diagonal: the side limit bounds the steps."""
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    data = encode_with_filter(pixels, 3)
    start = time.perf_counter()
    decoded = png.decode_rgb8(data)
    seconds = time.perf_counter() - start
    np.testing.assert_array_equal(decoded, pixels)
    assert seconds < 2, seconds


def test_inflate_stops_at_declared_size():
    data = png_file(4, 4, b"\x00" * (50 << 20))  # 52 bytes declared, 50 MB inflated
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="more than 52 bytes, expected 52"):
            png.decode_rgb8(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
