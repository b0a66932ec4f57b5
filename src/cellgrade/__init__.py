"""Malaria cell-image classification with two engines and one harness.

- png: PNG decoding (all five filter types) and 8-bit RGB encoding
- errors: the exception classes, one CLI exit code each
- imaging: image decoding, bilinear resizing, RGB<->HSV, raw-pixel and HSV
  color-histogram features
- knn: exact k-nearest-neighbour classification with four distance metrics
  and stratified cross-validation
- nn: from-scratch CNN engine (conv / batch norm / dropout / pooling / dense)
  with hand-derived backprop, Adam, and finite-difference gradient checking
- data: dataset ingestion, deterministic splits, and a synthetic cell-image
  generator
- prng: the splitmix64 generator behind every seeded draw
- harness: experiment commands, metrics CSV/JSON emission, binary checkpoints
- cli: the ``cellgrade`` command (knn, cnn-train, cnn-eval, synth)

The package re-exports nothing: import each name from its module, as in
``from cellgrade import nn`` or ``from cellgrade.knn import k_sweep``.
Everything is seeded and deterministic: same inputs, same seed, same bytes.
"""

__version__ = "0.1.0"
