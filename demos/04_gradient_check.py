"""Gradient checking: analytic backprop vs central finite differences.

Runs the checker in float64 on a small network containing every layer type
(two overlapping max pools among them), then corrupts one backward rule on
purpose to show the checker catching it.
"""

import numpy as np

import cellgrade.nn as nn
from cellgrade.prng import SeededPrng

net = nn.NetworkSpec((10, 10, 3), (
    nn.Conv2D(4, (3, 3), (1, 1)), nn.BatchNorm(4), nn.Relu(),
    nn.Conv2D(6, (3, 3), (2, 2)), nn.Relu(), nn.Dropout(0.25),
    nn.MaxPool((2, 2), (1, 1)), nn.MaxPool((2, 2), (1, 1)), nn.Flatten(),
    nn.Dense(8), nn.Relu(), nn.Dropout(0.4), nn.Dense(2),
))
params = nn.init_params(net, seed=6, dtype=np.float64)
rng = SeededPrng(7)
x = rng.uniform((4, 10, 10, 3))
y = np.arange(4) % 2

report = nn.gradient_check(net, params, x, y, sample_count=20, h=1e-5, seed=8)
print("per-layer max relative error (analytic vs finite differences):")
for i, (kind, err) in sorted(report.per_layer.items()):
    print(f"  layer {i:2d} {kind:<12} {err:.3e}")
print(f"overall max: {report.max_rel_err:.3e}  (threshold 1e-4)")

print("\nnow corrupting the dense backward rule (transposed weight gradient) ...")
good = nn.dense_backward
nn.dense_backward = lambda dy, cache: (dy @ cache[1].T,
                                       (cache[0].T @ dy).T.reshape(cache[1].shape),
                                       dy.sum(axis=0))
bad = nn.gradient_check(net, params, x, y, sample_count=20, h=1e-5, seed=8)
nn.dense_backward = good
print(f"checker now reports max relative error {bad.max_rel_err:.3e} (was {report.max_rel_err:.3e})")
