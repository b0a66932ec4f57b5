"""Malaria cell-image classification with two engines and one harness.

- imaging: PNG decoding, bilinear resizing, RGB<->HSV, raw-pixel and HSV
  color-histogram features
- knn: exact k-nearest-neighbour classification with four distance metrics
  and stratified cross-validation
- nn: from-scratch CNN engine (conv / batch norm / dropout / pooling / dense)
  with hand-derived backprop, Adam, and finite-difference gradient checking
- data: dataset ingestion, deterministic splits, and a synthetic cell-image
  generator
- prng: the splitmix64 generator behind every seeded draw
- harness: experiment commands, metrics CSV/JSON emission, binary checkpoints

Everything is seeded and deterministic: same inputs, same seed, same bytes.
"""

__version__ = "0.1.0"

from .data import load_dataset, synth_generate
from .errors import (
    CellgradeError,
    ConfigError,
    DataError,
    DecodeError,
    IntegrityError,
    ShapeError,
    UnsupportedFormatError,
)
from .imaging import (
    PixelImage,
    decode_image,
    extract_histogram_features,
    extract_raw_features,
    hsv_to_rgb,
    image_to_tensor,
    resize_bilinear,
    rgb_to_hsv,
)
from .knn import (
    DistanceMetric,
    KnnModel,
    NeighborSet,
    distance,
    k_nearest,
    k_sweep,
    minkowski,
    predict,
)
from .nn import (
    NetworkSpec,
    ParamState,
    adam_step,
    count_params,
    evaluate,
    gradient_check,
    infer_shapes,
    init_params,
    network_backward,
    network_forward,
    reduced_network,
    reference_network,
    softmax_cross_entropy,
    summarize,
    train_epoch,
)
from .prng import SeededPrng
from .harness import (
    cmd_cnn_eval,
    cmd_cnn_train,
    cmd_knn,
    cmd_synth,
    load_checkpoint,
    save_checkpoint,
)
