"""The full comparison: kNN on both feature kinds vs a CNN trained from scratch.

Generates a 600-image synthetic corpus, runs 4-fold kNN cross-validation
over raw-pixel and histogram features, trains the reduced CNN for ten
epochs, and prints the final ranking. Also demonstrates the checkpoint
round trip. Takes about half a minute on a desktop CPU.

It works inside its temporary directory, with the dataset at the relative
path "dataset": every output records that path, so a run from any other
directory under the same name gives the same bytes. It ends with one
"sha256 <hex>  <name>" line per output file.
"""

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from cellgrade import data, harness, nn
from cellgrade.knn import EUCLIDEAN

with tempfile.TemporaryDirectory(prefix="cellgrade_demo_") as tmp:
    home = os.getcwd()
    os.chdir(tmp)
    try:
        dataset_dir = Path("dataset")
        print("generating 600 synthetic cell images ...")
        harness.cmd_synth(dataset_dir, 600, 0.5, side=64, seed=42)

        print("\nkNN, 4-fold cross-validation, k=10, euclidean:")
        results = {}
        for features in ("raw", "hist"):
            summary = harness.cmd_knn(dataset_dir, features, EUCLIDEAN, [10], folds=4,
                                      seed=42, out_prefix=f"knn_{features}")
            results[features] = summary["results"][0]["mean_accuracy"]
            print(f"  {features:4s}: mean accuracy {results[features]:.4f}")

        print("\ntraining the reduced CNN for 10 epochs ...")
        summary = harness.cmd_cnn_train(
            dataset_dir, reduced=True, epochs=10, batch_size=32, lr=1e-3, seed=42,
            val_frac=0.2, out_prefix="cnn",
            progress=lambda r: print("  epoch {epoch:2d}  train_acc {train_acc:.4f}  "
                                     "val_acc {val_acc:.4f}".format(**r)))
        results["cnn"] = summary["curve"][-1]["val_acc"]

        print("\ncheckpoint round trip:")
        net = nn.reduced_network()
        params, digest = harness.load_checkpoint("cnn.ckpt", net)
        ds = data.load_dataset(dataset_dir)
        x, y, _ = harness.load_tensor_batch(ds, 32)
        logits, _ = nn.network_forward(net, params, x[:16])
        harness.save_checkpoint(params, net, "again.ckpt")
        params2, _ = harness.load_checkpoint("again.ckpt", net)
        logits2, _ = nn.network_forward(net, params2, x[:16])
        print(f"  spec digest {digest:#x}, eval logits bit-identical: {np.array_equal(logits, logits2)}")

        print("\nfinal ranking (validation accuracy):")
        for name, acc in sorted(results.items(), key=lambda kv: -kv[1]):
            print(f"  {name:4s} {acc:.4f}")
        print("\nCNN > histogram kNN > raw-pixel kNN, mirroring the full-corpus result.")

        print()
        for path in sorted(p for p in Path().iterdir() if p.is_file()):
            print(f"sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    finally:
        os.chdir(home)  # before the directory is removed
