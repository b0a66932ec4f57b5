import hashlib
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgrade import data, harness, imaging, png
from cellgrade.data import (
    fold_assignment_hash,
    load_dataset,
    permute_rows,
    stratified_fold_indices,
    synth_generate,
    train_val_split_indices,
)
from cellgrade.errors import ConfigError, DataError


def make_tree(root, n_par, n_un):
    (root / "Parasitized").mkdir(parents=True)
    (root / "Uninfected").mkdir(parents=True)
    for i in range(n_par):
        (root / "Parasitized" / f"p{i}.png").write_bytes(png.encode_rgb8(np.full((3, 3, 3), 100, np.uint8)))
    for i in range(n_un):
        (root / "Uninfected" / f"u{i}.png").write_bytes(png.encode_rgb8(np.full((3, 3, 3), 50, np.uint8)))


# -- load_dataset -------------------------------------------------------------

def test_load_dataset_counts_and_order(tmp_path):
    make_tree(tmp_path, 3, 2)
    ds = load_dataset(tmp_path)
    assert len(ds) == 5
    assert [it.label for it in ds] == [1, 1, 1, 0, 0]
    ids = [it.sample_id for it in ds]
    assert ids == sorted(ids)
    assert ds[0].label == 1  # 'Parasitized/...' sorts before 'Uninfected/...'


def test_load_dataset_missing_directory(tmp_path):
    (tmp_path / "Parasitized").mkdir()
    with pytest.raises(DataError, match="Uninfected"):
        load_dataset(tmp_path)


def test_load_dataset_empty(tmp_path):
    (tmp_path / "Parasitized").mkdir()
    (tmp_path / "Uninfected").mkdir()
    with pytest.raises(DataError, match="no PNG"):
        load_dataset(tmp_path)


def test_unreadable_file_is_skipped_with_report(tmp_path):
    make_tree(tmp_path, 2, 2)
    ihdr = struct.pack(">IIBBBBB", 8000, 8000, 8, 2, 0, 0, 0)
    body = zlib.compress(b"\x00" * 24001)  # one blank scanline of the 8000-wide image
    oversized = (b"\x89PNG\r\n\x1a\n" + png._chunk(b"IHDR", ihdr) + png._chunk(b"IDAT", body)
                 + png._chunk(b"IEND", b""))
    (tmp_path / "Parasitized" / "broken.png").write_bytes(b"not a png")
    (tmp_path / "Uninfected" / "huge.png").write_bytes(oversized)
    dangling = tmp_path / "Parasitized" / "zz_dangling.png"
    dangling.symlink_to(tmp_path / "gone.png")
    ds = load_dataset(tmp_path)
    assert len(ds) == 7
    x, y, skipped = harness.extract_feature_matrix(ds, "hsv_histogram")
    assert x.shape[0] == 4
    assert skipped == [
        {"id": "Parasitized/broken.png", "reason": "not a PNG: bad 8-byte signature at offset 0"},
        {"id": "Parasitized/zz_dangling.png",
         "reason": f"[Errno 2] No such file or directory: '{dangling}'"},
        {"id": "Uninfected/huge.png", "reason": "image 8000x8000 exceeds the 16777216-pixel limit"},
    ]


def test_unknown_feature_kind_rejected(tmp_path):
    make_tree(tmp_path, 2, 2)
    with pytest.raises(ConfigError, match="unknown feature kind 'bogus'"):
        harness.extract_feature_matrix(load_dataset(tmp_path), "bogus")


# -- folds ----------------------------------------------------------------------

def test_stratified_folds_exact_division():
    labels = np.array([0, 1] * 4)
    assignment = stratified_fold_indices(labels, 4, seed=0)
    for fold in range(4):
        members = labels[assignment == fold]
        assert len(members) == 2
        assert members.sum() == 1  # one of each class


def test_stratified_folds_deterministic():
    labels = np.array([0] * 50 + [1] * 50)
    a = stratified_fold_indices(labels, 4, seed=5)
    b = stratified_fold_indices(labels, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    c = stratified_fold_indices(labels, 4, seed=6)
    assert not np.array_equal(a, c)


def test_stratified_folds_balance_at_corpus_scale():
    """27,558 items split 4 ways: per-class fold sizes differ by at most 1."""
    labels = np.array([0] * 13779 + [1] * 13779)
    assignment = stratified_fold_indices(labels, 4, seed=1)
    for cls in (0, 1):
        sizes = [int(np.sum((assignment == f) & (labels == cls))) for f in range(4)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 13779
        assert set(sizes) == {3444, 3445}


def test_stratified_folds_class_too_small():
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(ConfigError, match="class 0"):
        stratified_fold_indices(labels, 4, seed=0)


def test_fold_assignment_hash(tmp_path):
    make_tree(tmp_path, 4, 4)
    labels = [it.label for it in load_dataset(tmp_path)]
    assignment = stratified_fold_indices(labels, 2, seed=3)
    digest = fold_assignment_hash(assignment, 2, 3)
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert digest == fold_assignment_hash(stratified_fold_indices(labels, 2, seed=3), 2, 3)
    # the digest names the fold count and the seed as well as the assignment
    assert len({digest, fold_assignment_hash(assignment, 3, 3),
                fold_assignment_hash(assignment, 2, 4)}) == 3


# -- train/val split ---------------------------------------------------------------

def test_split_ten_items_fraction_02():
    labels = np.array([0] * 5 + [1] * 5)
    train, val = train_val_split_indices(labels, 0.2, seed=0)
    assert len(val) == 2 and len(train) == 8
    assert labels[val].sum() == 1


def test_split_four_items_fraction_05():
    labels = np.array([0, 0, 1, 1])
    train, val = train_val_split_indices(labels, 0.5, seed=1)
    assert len(train) == 2 and len(val) == 2


def test_split_union_restores_everything(tmp_path):
    make_tree(tmp_path, 6, 6)
    ds = load_dataset(tmp_path)
    train, val = train_val_split_indices([it.label for it in ds], 0.25, seed=9)
    ids = [ds[i].sample_id for i in (*train, *val)]
    assert sorted(ids) == sorted(it.sample_id for it in ds)
    assert len(set(ids)) == len(ds)


def test_split_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        train_val_split_indices(np.array([0, 1]), 1.5, seed=0)


# -- in-place row permutation ---------------------------------------------------

# quiet and signalling NaNs with payloads, -0.0, 0.0 and the infinities, as bits
SPECIAL_BITS = [0x7FF8_0000_0000_0001, 0xFFF0_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001,
                0x8000_0000_0000_0000, 0, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000]


def check_round_trip(x, order):
    before = x.copy()
    permute_rows(x, order)
    assert x.tobytes() == before[order].tobytes()
    permute_rows(x, np.argsort(order))
    assert x.tobytes() == before.tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_row_moves_round_trip_bit_for_bit(data):
    n = data.draw(st.integers(0, 40))
    d = data.draw(st.integers(1, 3))
    words = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))
    x = np.array(data.draw(st.lists(words, min_size=n * d, max_size=n * d)),
                 dtype=np.uint64).view(np.float64).reshape(n, d)
    # any integer dtype, byte-swapped too, is taken as the row order
    dtype = data.draw(st.sampled_from([np.intp, np.uint8, ">i4"]))
    check_round_trip(x, np.array(data.draw(st.permutations(range(n))), dtype=dtype))


@pytest.mark.parametrize("pick", ["none", "all", "first", "last", "odd"])
def test_row_moves_round_trip_on_edge_sets(pick):
    """The layouts a fold or a split makes: the other rows, then the picked
    ones. Tensors of any rank move by their first axis, as cmd_cnn_train's
    (N, H, W, 3) do."""
    x = np.arange(9 * 2 * 3, dtype=np.float32).reshape(9, 2, 3) - 20
    x[0, 0, 0], x[4, 1, 2] = -0.0, np.nan
    rows = {"none": [], "all": range(9), "first": [0], "last": [8], "odd": range(1, 9, 2)}[pick]
    picked = np.isin(np.arange(9), list(rows))
    check_round_trip(x, np.concatenate([np.flatnonzero(~picked), np.flatnonzero(picked)]))


@pytest.mark.parametrize("order", [[0, 2, 2, 1], [0, 1, 2, 4], [0, 1, 2], [0, 1, 2, 3.0], [[0, 1], [2, 3]]],
                         ids=["repeated", "out-of-range", "short", "float", "rank-2"])
def test_permute_rows_refuses_a_non_permutation(order):
    """Refused before a row moves, so no row is lost to a repeated index."""
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ConfigError, match=r"^row order of shape .* is not a permutation of range\(4\)$"):
        permute_rows(x, order)
    assert x.tolist() == np.arange(8.0).reshape(4, 2).tolist()


@pytest.mark.parametrize("order", ["reverse", "one-cycle", "fold"])
def test_row_moves_use_one_row_of_scratch(order):
    """Beyond the index arrays (order, its sort and the cycle flags), a
    permutation holds one row: no fancy-indexed copy, no slice copy."""
    n = 256
    x = np.random.default_rng(3).normal(size=(n, 1024))
    val = np.arange(n) % 4 == 1
    order = {"reverse": np.arange(n)[::-1], "one-cycle": np.roll(np.arange(n), 1),
             "fold": np.concatenate([np.flatnonzero(~val), np.flatnonzero(val)])}[order]
    tracemalloc.start()
    try:
        permute_rows(x, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    index_arrays = 3 * order.nbytes
    assert peak < 2 * x[0].nbytes + index_arrays, (peak - index_arrays) / x[0].nbytes


# -- synthetic generator ---------------------------------------------------------------

def test_synth_counts_and_manifest(tmp_path):
    manifest = synth_generate(tmp_path / "d", 100, 0.5, side=24, seed=7)
    par = list((tmp_path / "d" / "Parasitized").glob("*.png"))
    un = list((tmp_path / "d" / "Uninfected").glob("*.png"))
    assert len(par) == 50 and len(un) == 50
    on_disk = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert on_disk["seed"] == 7 and on_disk["n"] == 100 and on_disk["side"] == 24
    assert on_disk["counts"] == {"Parasitized": 50, "Uninfected": 50}
    assert manifest["counts"] == on_disk["counts"]


def test_synth_byte_identical_across_runs(tmp_path):
    synth_generate(tmp_path / "a", 20, 0.5, side=20, seed=3)
    synth_generate(tmp_path / "b", np.int64(20), np.float32(0.5), side=np.uint8(20), seed=np.int32(3))
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")  # numpy scalars: the same bytes
    assert len(a) == 21 and [p.relative_to(tmp_path / "b") for p in b] == [p.relative_to(tmp_path / "a") for p in a]
    assert list(a.values()) == list(b.values())


def test_synth_different_seeds_differ(tmp_path):
    synth_generate(tmp_path / "a", 4, 0.5, side=20, seed=1)
    synth_generate(tmp_path / "b", 4, 0.5, side=20, seed=2)
    a = sorted((tmp_path / "a").rglob("*.png"))
    b = sorted((tmp_path / "b").rglob("*.png"))
    assert any(x.read_bytes() != y.read_bytes() for x, y in zip(a, b))


def test_synth_parameter_validation(tmp_path):
    with pytest.raises(ConfigError):
        synth_generate(tmp_path, 1, 0.5)
    with pytest.raises(ConfigError):
        synth_generate(tmp_path, 10, 0.0)
    with pytest.raises(ConfigError):
        synth_generate(tmp_path, 10, 0.5, side=4)
    with pytest.raises(ConfigError, match="n must be 2 to 1048576 images"):
        synth_generate(tmp_path, 10**12, 0.5)  # refused before its names are listed
    for bad, match in [({"n": 10.0}, "^n must be an integer, got 10.0$"),
                       ({"side": 16.0}, "^side must be an integer, got 16.0$"),
                       ({"seed": 1.5}, "^seed must be an integer, got 1.5$")]:
        with pytest.raises(ConfigError, match=match):
            synth_generate(tmp_path, **{"n": 10, "parasitized_fraction": 0.5, **bad})
    assert not any(tmp_path.iterdir())


def tree_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_bytes_are_pinned(tmp_path):
    """A changed drawing or colour rule changes generator output, so it must
    come with a new GENERATOR_VERSION and a new digest here."""
    synth_generate(tmp_path, 12, 0.5, side=32, seed=7)
    h = hashlib.sha256()
    for p, body in tree_bytes(tmp_path).items():
        h.update(p.relative_to(tmp_path).as_posix().encode() + body)
    assert data.GENERATOR_VERSION == 1
    assert h.hexdigest() == "5ab740e5f0a6f3841ff7768ca251a501aef2277128da469cabf23d30abd46e64"


def test_synth_refuses_a_tree_holding_other_pngs(tmp_path):
    synth_generate(tmp_path, 20, 0.5, side=16, seed=1)
    first = tree_bytes(tmp_path)
    with pytest.raises(ConfigError, match=r"cell_00005\.png is left over"):
        synth_generate(tmp_path, 10, 0.5, side=16, seed=1)
    assert tree_bytes(tmp_path) == first  # refused before anything was written
    synth_generate(tmp_path, 20, 0.5, side=16, seed=1)  # the same command into its own output
    assert tree_bytes(tmp_path) == first
    synth_generate(tmp_path, 24, 0.5, side=16, seed=1)  # a superset of the names
    assert len(load_dataset(tmp_path)) == 24
    # load_dataset's filter decides what counts: files with a .png suffix in any case
    fresh = tmp_path / "fresh"
    (fresh / "Uninfected" / "folder.png").mkdir(parents=True)
    (fresh / "Uninfected" / "notes.txt").write_text("not an image")
    synth_generate(fresh, 4, 0.5, side=16, seed=1)
    (fresh / "Uninfected" / "EXTRA.PNG").write_bytes(b"")
    with pytest.raises(ConfigError, match="EXTRA.PNG"):
        synth_generate(fresh, 4, 0.5, side=16, seed=1)


def test_synth_classes_differ_in_parasite_color_mass(small_synth):
    """Generator acceptance gate: histogram mass in the parasite color region
    must be measurably higher for parasitized images."""
    ds = load_dataset(small_synth)
    x, y, skipped = harness.extract_feature_matrix(ds, "hsv_histogram", 8)
    assert not skipped
    # hue bins 5-6 cover the purple band the parasite palette draws from
    mass = x.reshape(len(y), 8, 8, 8)[:, 5:7, 3:, :].sum(axis=(1, 2, 3))
    margin = mass[y == 1].mean() - mass[y == 0].mean()
    assert margin > 0.01


def test_synth_images_decode_to_declared_side(small_synth):
    ds = load_dataset(small_synth)
    img = imaging.decode_image(ds[0].source.read_bytes())
    assert img.values.shape == (48, 48, 3)
