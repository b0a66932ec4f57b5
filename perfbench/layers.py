"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its child spans.
Layer shares are self time over the traced pass's wall time. The uncovered
share is the part of that wall time no span below a command covers: the time
outside the `harness.cmd_*` spans plus those spans' own self time.

A training step is not a function of its own: it runs from a train-mode
`nn.network_forward` inside `nn.train_epoch` to the `nn.commit_bn_updates`
that follows `nn.adam_step`. Kernel times per step are self times of the
kernel's spans inside `nn.train_epoch`.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

from tracer import LAYERS, Span

NN_KERNELS = (
    "conv2d_forward", "conv2d_backward", "batch_norm_forward_train", "batch_norm_backward",
    "max_pool_forward", "max_pool_backward", "dropout_forward", "dropout_backward",
    "dense_forward", "dense_backward", "softmax_cross_entropy", "adam_step",
)
SKIP_CLASSES = ("DecodeError", "UnsupportedFormatError")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Adam reads param, grad, m, v and writes param, m, v: 7 float32 streams.
ADAM_STREAMS = 7

# Per-layer metrics every workload reports from a traced run, in BENCHMARK.json
# order. The rest of a traced run's report depends on the layers it reaches.
PER_LAYER = (
    "trace.wall_s", "trace.overhead_s", "trace.uncovered_share", "trace.spans",
    *(f"{layer}.share" for layer in LAYERS),
    "png.decode_ms_per_image", *(f"png.decode_ms_per_image.f{f}" for f in range(5)),
    "png.decode_mb_per_s", "png.decodes_per_image",
    "nn.steps", *(f"nn.{k}.share" for k in NN_KERNELS),
    "knn.pair_dims", "harness.checkpoint_mb", "harness.tensor_batch_mb",
    *(f"harness.skipped.{c}" for c in SKIP_CLASSES),
    "data.synth_ms_per_image",
)


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _inside(spans: list[Span], name: str) -> list[bool]:
    """Whether each span is `name` or descends from it (parents precede children)."""
    flags = []
    for s in spans:
        flags.append(s.name == name or (s.parent >= 0 and flags[s.parent]))
    return flags


def train_steps(spans: list[Span]) -> list[float]:
    """Durations of the training steps, in seconds."""
    steps, start = [], None
    for s in spans:
        parent = spans[s.parent].name if s.parent >= 0 else None
        if parent != "nn.train_epoch":
            continue
        if s.name == "nn.network_forward":
            start = s.start
        elif s.name == "nn.commit_bn_updates" and start is not None:
            steps.append(s.end - start)
            start = None
    return steps


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with >= 10 samples beyond
    it; the median when there are too few samples for any."""
    ordered = sorted(values)
    q = next((q for q in TAIL_LADDER if len(ordered) * (1 - q / 100) >= 10), 50.0)
    return q, percentile(ordered, q)


def pair_dims(note: dict) -> int:
    """Sum over folds of val x train x D, with the stratified round-robin fold sizes."""
    folds, n = note["folds"], note["n"]
    total = 0
    for f in range(folds):
        val = sum(-(-(c - f) // folds) for c in note["class_counts"])
        total += val * (n - val)
    return total * note["dims"]


def analyze(spans: list[Span], wall_s: float, untraced_wall_s: float, filter_of: dict[int, int],
            n_files: int, synth_ms_per_image: float, wrapper_cost_s: float) -> dict:
    """Every per-layer number of one traced pass, as {name: {"value", "unit"}}.

    `filter_of` maps hash(file bytes) to the file's PNG filter type, `n_files`
    is the number of distinct files in the corpus, and `wrapper_cost_s` the
    measured cost of one traced call.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def mean_ms(name):
        idx = by_name[name]
        return 1e3 * sum(spans[i].seconds for i in idx) / len(idx)

    put("trace.wall_s", wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s, "s")
    put("trace.wrapper_cost_s", len(spans) * wrapper_cost_s, "s")
    outside = wall_s - sum(s.seconds for s in spans if s.parent < 0)
    in_commands = sum(t for s, t in zip(spans, own) if s.name.startswith("harness.cmd_"))
    put("trace.uncovered_share", (outside + in_commands) / wall_s, "fraction")
    put("trace.spans", len(spans), "count")
    put("data.synth_ms_per_image", synth_ms_per_image, "ms")
    layer_self = Counter()
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
    for layer in LAYERS:
        put(f"{layer}.share", layer_self[layer] / wall_s, "fraction")

    # png: decode time per filter type; failed decodes count as calls, not images.
    decodes = [spans[i] for i in by_name["png.decode_rgb8"]]
    ok = [s for s in decodes if s.error is None]
    per_filter = defaultdict(list)
    for s in ok:
        per_filter[filter_of.get(s.note["key"], -1)].append(s.seconds)
    decode_s = sum(s.seconds for s in ok)
    put("png.decode_ms_per_image", 1e3 * decode_s / len(ok) if ok else 0.0, "ms")
    put("png.decode_mb_per_s",
        sum(s.note["bytes"] for s in ok) / 1e6 / decode_s if ok else 0.0, "MB/s")
    put("png.decodes_per_image", len(decodes) / n_files, "ratio")
    put("png.distinct_files_decoded", len({s.note["key"] for s in decodes}), "count")
    for ftype in range(5):
        times = per_filter.get(ftype, [])
        put(f"png.decode_ms_per_image.f{ftype}",
            1e3 * statistics.median(times) if times else 0.0, "ms")
        put(f"png.decoded.f{ftype}", len(times), "count")

    for key, name in (("hist", "extract_histogram_features"), ("raw", "extract_raw_features"),
                      ("tensor", "image_to_tensor")):
        if by_name[f"imaging.{name}"]:
            put(f"imaging.{key}_ms_per_image", mean_ms(f"imaging.{name}"), "ms")

    # knn: one k_sweep per cmd_knn call.
    sweeps = [spans[i] for i in by_name["knn.k_sweep"]]
    total_pair_dims = sum(pair_dims(s.note) for s in sweeps)
    put("knn.pair_dims", total_pair_dims, "count")
    if sweeps:
        sweep_s = sum(s.seconds for s in sweeps)
        put("knn.k_sweep_s", sweep_s, "s")
        put("knn.ns_per_pair_dim", 1e9 * sweep_s / total_pair_dims, "ns")
        for s in sweeps:
            label = f"knn.k_sweep.{s.note['metric']}.d{s.note['dims']}"
            put(f"{label}.s", s.seconds, "s")
            put(f"{label}.ns_per_pair_dim", 1e9 * s.seconds / pair_dims(s.note), "ns")

    # harness: checkpoints, tensor memory, skips by exception class.
    saves = by_name["harness.save_checkpoint"]
    put("harness.checkpoint_mb", spans[saves[-1]].note["bytes"] / 1e6 if saves else 0.0, "MB")
    if saves:
        put("harness.save_checkpoint_ms", mean_ms("harness.save_checkpoint"), "ms")
        put("harness.saves", len(saves), "count")
    if by_name["harness.load_checkpoint"]:
        put("harness.load_checkpoint_ms", mean_ms("harness.load_checkpoint"), "ms")
    batches = by_name["harness.load_tensor_batch"]
    put("harness.tensor_batch_mb",
        max((spans[i].note["bytes"] for i in batches), default=0) / 1e6, "MB")
    skipped = Counter(spans[i].error for i in by_name["imaging.decode_image"] if spans[i].error)
    for cls in sorted(set(SKIP_CLASSES) | set(skipped)):
        put(f"harness.skipped.{cls}", skipped[cls], "count")

    # nn: training steps and the kernels inside them.
    steps = train_steps(spans)
    put("nn.steps", len(steps), "count")
    in_train = _inside(spans, "nn.train_epoch")
    step_s = sum(steps)
    for k in NN_KERNELS:
        kernel_s = sum(own[i] for i in by_name[f"nn.{k}"] if in_train[i])
        put(f"nn.{k}.share", kernel_s / step_s if steps else 0.0, "fraction")
        if steps:
            put(f"nn.{k}.ms_per_step", 1e3 * kernel_s / len(steps), "ms")
    if steps:
        ms = [1e3 * s for s in steps]
        put("nn.step_ms_p50", percentile(sorted(ms), 50), "ms")
        q, value = tail(ms)
        put("nn.step_ms_tail", value, "ms")
        put("nn.step_ms_tail_percentile", q, "%")
        flop = sum(spans[i].note["flop"] for k in ("conv2d_forward", "conv2d_backward",
                                                     "dense_forward", "dense_backward")
                   for i in by_name[f"nn.{k}"] if in_train[i])
        put("nn.step_gflop.computed", flop / 1e9 / len(steps), "GFLOP")
        conv = [i for k in ("conv2d_forward", "conv2d_backward") for i in by_name[f"nn.{k}"]
                if in_train[i]]
        put("nn.conv_gflop_per_s", sum(spans[i].note["flop"] for i in conv) / 1e9
            / sum(spans[i].seconds for i in conv), "GFLOP/s")
        adam = next(spans[i] for i in by_name["nn.adam_step"] if in_train[i])
        put("nn.adam_mb_per_step.computed", ADAM_STREAMS * 4 * adam.note["params"] / 1e6, "MB")
        uniform_s = sum(own[i] for i in by_name["prng.SeededPrng.uniform"] if in_train[i])
        put("prng.uniform_ms_per_step", 1e3 * uniform_s / len(steps), "ms")
    return m
