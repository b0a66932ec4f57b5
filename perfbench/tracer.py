"""Outside-in span tracing of the cellgrade layers.

`Tracer.install()` replaces every public function of the traced modules with
a timing wrapper, under each name a caller looks it up by: the defining
module's attribute and every other cellgrade module global bound to the same
function (so `harness.decode_image` and `imaging.decode_image` both record
`imaging.decode_image`). Public methods of `SeededPrng` are wrapped on the
class. Nothing in the program is edited; `uninstall()` puts the originals
back.

A span is (name, start, end, parent index, run id) plus an optional exception
class name and a small note (shapes, sizes) taken from the arguments. Spans
stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "cellgrade"
LAYERS = ("png", "imaging", "data", "prng", "knn", "nn", "harness")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    note: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Note makers run after the wrapped call, outside its timed interval. `result`
# is None when the call raised.

def _note_decode(args, kwargs, result):
    note = {"key": hash(args[0])}
    if result is not None:
        note["bytes"] = int(result.nbytes)
    return note


def _note_conv(args, kwargs, result):
    y = result[0]
    kh, kw, c, f = args[1].shape
    return {"flop": 2 * y.shape[0] * y.shape[1] * y.shape[2] * kh * kw * c * f}


def _note_conv_backward(args, kwargs, result):
    dy, cache = args[0], args[1]
    kh, kw, c, f = cache[2].shape  # cache = (x shape, columns, kernel, stride, output size)
    return {"flop": 4 * dy.shape[0] * dy.shape[1] * dy.shape[2] * kh * kw * c * f}


def _note_dense(args, kwargs, result):
    x, w = args[0], args[1]
    return {"flop": 2 * x.shape[0] * w.shape[0] * w.shape[1]}


def _note_dense_backward(args, kwargs, result):
    dy, (_, w) = args[0], args[1]
    return {"flop": 4 * dy.shape[0] * w.shape[0] * w.shape[1]}


def _note_adam(args, kwargs, result):
    grads = args[1]
    return {"params": sum(g.size for layer in grads for g in layer.values())}


def _note_forward(args, kwargs, result):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return {"mode": mode, "batch": int(args[2].shape[0])}


def _note_k_sweep(args, kwargs, result):
    features, labels = args[0], args[1]
    folds = args[3] if len(args) > 3 else kwargs["folds"]
    metric = args[4] if len(args) > 4 else kwargs.get("metric")
    return {"n": int(features.shape[0]), "dims": int(features.shape[1]), "folds": int(folds),
            "class_counts": [int((labels == c).sum()) for c in (0, 1)],
            "metric": getattr(metric, "label", "euclidean")}


def _note_ckpt_save(args, kwargs, result):
    return {"bytes": os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])}


def _note_ckpt_load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _note_tensor_batch(args, kwargs, result):
    return {"bytes": int(result[0].nbytes)}


NOTES = {
    "png.decode_rgb8": _note_decode,
    "nn.conv2d_forward": _note_conv,
    "nn.conv2d_backward": _note_conv_backward,
    "nn.dense_forward": _note_dense,
    "nn.dense_backward": _note_dense_backward,
    "nn.adam_step": _note_adam,
    "nn.network_forward": _note_forward,
    "knn.k_sweep": _note_k_sweep,
    "harness.save_checkpoint": _note_ckpt_save,
    "harness.load_checkpoint": _note_ckpt_load,
    "harness.load_tensor_batch": _note_tensor_batch,
}
# The only note also taken when the call raised: it keys failed decodes to files.
_NOTE_ON_ERROR = {"png.decode_rgb8"}


@dataclass
class Tracer:
    """Span recorder for one traced pass; `run_id` is shared by all its spans."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        on_error = name in _NOTE_ON_ERROR
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.error = type(exc).__name__
                if note is not None and on_error:
                    span.note = note(args, kwargs, None)
                raise
            span.end = clock()
            stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> dict[object, str]:
        """Original function or method -> span name, for every traced layer."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    targets[value] = f"{layer}.{attr}"
        prng_cls = sys.modules[f"{PACKAGE}.prng"].SeededPrng
        for attr, value in vars(prng_cls).items():
            if not attr.startswith("_") and inspect.isfunction(value):
                targets[value] = f"prng.SeededPrng.{attr}"
        return targets

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        prng_cls = sys.modules[f"{PACKAGE}.prng"].SeededPrng
        for owner in modules + [prng_cls]:
            for attr, value in list(vars(owner).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module global
                    continue
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "run": self.run_id, "error": s.error, "note": s.note,
                }) + "\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a call of a function that does nothing."""
    def noop():
        return None

    traced = Tracer("calibration")._wrap("calibration.noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - plain) / calls)
