"""Input corpora for the benchmark workloads.

`synth_corpus` is the paper's desk input: `cellgrade synth` output, every
scanline unfiltered. `filtered_corpus` stands in for the NIH corpus: synth
cells resized to varied sides and re-encoded with all five PNG scanline
filters in equal proportions, one filter type per image, plus planted
malformed files that every command must skip.

The filter encoder here is vectorized. Encoding a scanline reads only the
unfiltered neighbours (left, up, up-left), which are all known up front, so
each filter is a handful of whole-array numpy operations. Decoding cannot do
this: Average and Paeth read reconstructed bytes, which is why the program's
decoder loops per byte there and why this corpus exercises it.
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cellgrade import harness, imaging, png
from cellgrade.errors import DataError
from cellgrade.prng import SeededPrng

SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")

# Share of corpus-knn images per filter type (none, sub, up, average, paeth).
# Equal shares give every filter type the same number of images to time. They
# are a coverage choice, not the NIH corpus's mix, which has not been measured.
FILTER_MIX = (0.2, 0.2, 0.2, 0.2, 0.2)
SYNTH_SIDE = 64  # the paper's desk input size
SIDE_RANGE = (100, 150)  # NIH cell crops are roughly this size
# png.encode_rgb8 compresses at level 6, but on these filtered rows level 6
# costs ~6 ms per image against ~1.3 ms at level 1, and a build ~12 s, not ~5 s.
# Decode time does not follow the level: at 130 px, level 1 / level 6 files
# decoded in 0.76/0.80, 1.07/1.07, 0.58/0.57, 11.1/13.1 and 19.1/18.0 ms for
# None/Sub/Up/Average/Paeth (30 cells each, 2-vCPU Xeon VM); the IDAT is 1-8%
# larger at level 1.
ZLIB_LEVEL = 1
# Planted per class directory: reason kind -> count.
PLANTED = {"bad_crc": 1, "truncated": 1, "depth16": 1}
# What cmd_knn must report for each planted kind (exception class, reason prefix).
PLANTED_REASONS = {
    "bad_crc": ("DecodeError", "bad CRC in b'IDAT' chunk"),
    "truncated": ("DecodeError", "truncated b'IDAT' chunk"),
    "depth16": ("UnsupportedFormatError", "bit depth 16 not supported"),
}


def chunk(ctype: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))


def filter_scanlines(pixels: np.ndarray, ftype: int) -> np.ndarray:
    """(h, 1 + w*c) uint8 rows, every scanline filtered with `ftype`."""
    h, w, c = pixels.shape
    x = pixels.reshape(h, w * c).astype(np.int16)
    left = np.zeros_like(x)
    left[:, c:] = x[:, :-c]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    upleft = np.zeros_like(x)
    upleft[1:, c:] = x[:-1, :-c]
    if ftype == 0:
        pred = np.zeros_like(x)
    elif ftype == 1:
        pred = left
    elif ftype == 2:
        pred = up
    elif ftype == 3:
        pred = (left + up) >> 1
    elif ftype == 4:
        pa = np.abs(up - upleft)
        pb = np.abs(left - upleft)
        pc = np.abs(left + up - 2 * upleft)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    else:
        raise ValueError(f"unknown PNG filter type {ftype}")
    out = np.empty((h, 1 + w * c), dtype=np.uint8)
    out[:, 0] = ftype
    out[:, 1:] = (x - pred).astype(np.uint8)  # wraps mod 256, as PNG specifies
    return out


def encode_png(pixels: np.ndarray, ftype: int, depth: int = 8) -> bytes:
    """RGB PNG with one filter type on every scanline; depth 16 doubles each sample."""
    h, w, _ = pixels.shape
    if depth == 16:
        pixels = np.repeat(pixels, 2, axis=2)  # big-endian 16-bit: high byte, low byte
    rows = filter_scanlines(pixels, ftype) if depth == 8 else np.concatenate(
        [np.zeros((h, 1), np.uint8), pixels.reshape(h, -1)], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, depth, 2, 0, 0, 0)
    idat = zlib.compress(rows.tobytes(), ZLIB_LEVEL)
    return SIGNATURE + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def scanline_filters(data: bytes) -> set[int]:
    """Filter types used by an 8-bit RGB PNG's scanlines (no decoding of pixels)."""
    pos, idat, width = 8, bytearray(), 0
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if ctype == b"IHDR":
            width = struct.unpack(">I", body[:4])[0]
        elif ctype == b"IDAT":
            idat += body
        pos += 12 + length
    raw = zlib.decompress(bytes(idat))
    return set(raw[:: 1 + 3 * width])


@dataclass
class Corpus:
    """A generated dataset root plus what the benchmark expects of it."""

    root: Path
    files: dict[str, int]  # sample id -> scanline filter type, decodable files only
    planted: dict[str, str] = field(default_factory=dict)  # sample id -> planted kind
    pixel_digests: dict[str, str] = field(default_factory=dict)  # sample id -> SHA-256 of encoded pixels
    keys: dict[int, str] = field(default_factory=dict)  # hash(file bytes) -> sample id

    @property
    def n_valid(self) -> int:
        return len(self.files)

    @property
    def n_files(self) -> int:
        return len(self.files) + len(self.planted)

    def filter_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(FILTER_NAMES, 0)
        for ftype in self.files.values():
            counts[FILTER_NAMES[ftype]] += 1
        return counts

    def index(self) -> None:
        """Record the hash of every file's bytes, so decode calls map back to files."""
        self.keys = {hash((self.root / sid).read_bytes()): sid
                     for sid in list(self.files) + list(self.planted)}

    def digest(self) -> str:
        h = hashlib.sha256()
        for sid in sorted(list(self.files) + list(self.planted)):
            h.update(sid.encode() + b"\0" + (self.root / sid).read_bytes())
        return h.hexdigest()


def _sample_ids(root: Path) -> list[str]:
    return sorted(f"{p.parent.name}/{p.name}" for p in root.glob("*/*.png"))


def synth_corpus(root: Path, n: int, seed: int) -> Corpus:
    """`cellgrade synth` output at 64 px; its encoder writes filter 0 on every scanline."""
    harness.cmd_synth(root, n, 0.5, SYNTH_SIDE, seed)
    return Corpus(root, dict.fromkeys(_sample_ids(root), 0))


def _assign_filters(n: int, rng: SeededPrng) -> np.ndarray:
    counts = [int(round(share * n)) for share in FILTER_MIX]
    counts[0] += n - sum(counts)
    ftypes = np.repeat(np.arange(len(FILTER_MIX)), counts)
    return ftypes[rng.permutation(n)]


def _plant(kind: str, pixels: np.ndarray) -> bytes:
    data = encode_png(pixels, 0, depth=16 if kind == "depth16" else 8)
    idat_body = 8 + 25 + 8  # signature + IHDR chunk + IDAT length/type
    if kind == "bad_crc":
        return data[:idat_body] + bytes([data[idat_body] ^ 0xFF]) + data[idat_body + 1 :]
    if kind == "truncated":
        return data[: idat_body + (len(data) - idat_body) // 2]
    return data


def filtered_corpus(root: Path, n: int, seed: int) -> tuple[Corpus, float]:
    """Synth cells resized to SIDE_RANGE sides, re-encoded per FILTER_MIX, plus planted files.

    The synth source is written to root/../<name>.src and removed afterwards.
    Returns the corpus and the seconds spent in `cellgrade synth`.
    """
    rng = SeededPrng(seed ^ 0x5EED)
    src = root.parent / (root.name + ".src")
    start = time.perf_counter()
    source = synth_corpus(src, n, seed)
    synth_s = time.perf_counter() - start
    ftypes = _assign_filters(n, rng)
    corpus = Corpus(root, {})
    for i, sid in enumerate(source.files):
        cell = imaging.decode_image((src / sid).read_bytes())
        side = SIDE_RANGE[0] + rng.below(SIDE_RANGE[1] - SIDE_RANGE[0] + 1)
        out = np.round(imaging.resize_bilinear(cell, side, side).values * 255.0).astype(np.uint8)
        dest = root / sid
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(encode_png(out, int(ftypes[i])))
        corpus.files[sid] = int(ftypes[i])
        corpus.pixel_digests[sid] = hashlib.sha256(out.tobytes()).hexdigest()
    for c, class_dir in enumerate(("Parasitized", "Uninfected")):
        for k, (kind, count) in enumerate(PLANTED.items()):
            for j in range(count):
                # distinct bytes per file, so decode calls map back to one file each
                pixels = np.full((8, 8, 3), 16 * k + 4 * j + c, dtype=np.uint8)
                sid = f"{class_dir}/planted_{kind}_{j}.png"
                (root / sid).write_bytes(_plant(kind, pixels))
                corpus.planted[sid] = kind
    shutil.rmtree(src)
    return corpus, synth_s


def verify_round_trip(corpus: Corpus) -> list[str]:
    """Problems found decoding every valid file once with png.decode_rgb8.

    Each file must decode, use only its planned filter type, and reproduce
    the pixels it was encoded from wherever the benchmark encoded it.
    """
    problems = []
    for sid, ftype in corpus.files.items():
        data = (corpus.root / sid).read_bytes()
        used = scanline_filters(data)
        if used != {ftype}:
            problems.append(f"{sid}: scanline filters {sorted(used)}, planned {{{ftype}}}")
        try:
            pixels = png.decode_rgb8(data)
        except DataError as exc:
            problems.append(f"{sid}: {type(exc).__name__}: {exc}")
            continue
        expected = corpus.pixel_digests.get(sid)
        if expected is not None and hashlib.sha256(pixels.tobytes()).hexdigest() != expected:
            problems.append(f"{sid}: decoded pixels differ from the encoded ones")
    return problems
