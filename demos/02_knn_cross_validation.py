"""Cross-validated kNN: raw pixels vs HSV histograms, plus a small k sweep.

Reproduces the qualitative result that color histograms beat raw pixels on
cell images, at desk scale on the synthetic corpus.
"""

import tempfile
from pathlib import Path

from cellgrade import data, harness, knn

with tempfile.TemporaryDirectory(prefix="cellgrade_demo_") as tmp:
    root = Path(tmp)
    print("generating 400 synthetic cell images ...")
    data.synth_generate(root, 400, 0.5, side=64, seed=3)
    dataset = data.load_dataset(root)
    n_par = sum(it.label for it in dataset)
    print(f"loaded {len(dataset)} items, class counts (uninfected, parasitized) = {(len(dataset) - n_par, n_par)}")

    x_hist, y, _ = harness.extract_feature_matrix(dataset, "hsv_histogram", bins=8)
    x_raw, _, _ = harness.extract_feature_matrix(dataset, "raw_pixel")

    for label, x in (("hsv_histogram", x_hist), ("raw_pixel", x_raw)):
        report, = knn.k_sweep(x, y, [10], folds=4, metric=knn.EUCLIDEAN, seed=3)
        folds = " ".join(f"{a:.3f}" for a in report.accuracies)
        print(f"{label:14s} k=10: fold accuracies [{folds}]  mean {report.mean:.4f}")

    print("\nsweeping k over the histogram features (one shared fold assignment):")
    for report in knn.k_sweep(x_hist, y, [1, 3, 5, 10, 25, 50], folds=4, seed=3):
        print(f"  k={report.k:3d}  mean accuracy {report.mean:.4f}")

    print("\ndistance metrics on the same features, k=10:")
    for metric in (knn.EUCLIDEAN, knn.MANHATTAN, knn.minkowski(3.0)):
        report, = knn.k_sweep(x_hist, y, [10], folds=4, metric=metric, seed=3)
        print(f"  {metric.label:18s} mean accuracy {report.mean:.4f}")
