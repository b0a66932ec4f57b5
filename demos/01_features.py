"""Feature extraction walkthrough: one image, both kNN representations.

Generates a pair of synthetic cell images, then shows what the classifier
actually sees: the 3072-dim raw-pixel vector and the 512-dim HSV histogram.
"""

import tempfile
from pathlib import Path

import numpy as np

from cellgrade import data, imaging

with tempfile.TemporaryDirectory(prefix="cellgrade_demo_") as tmp:
    root = Path(tmp)
    data.synth_generate(root, 4, 0.5, side=64, seed=1)

    for name in ("Parasitized/cell_00000.png", "Uninfected/cell_00000.png"):
        img = imaging.decode_image((root / name).read_bytes())
        print(f"\n{name}: {img.width}x{img.height}, values in [{img.values.min():.3f}, {img.values.max():.3f}]")

        raw = imaging.extract_raw_features(img)
        print(f"  raw_pixel features: {raw.size} dims "
              f"(32x32x3 after bilinear resize), mean {raw.mean():.4f}")

        hist = imaging.extract_histogram_features(img, bins_per_channel=8)
        top = np.argsort(hist)[::-1][:5]
        print(f"  hsv_histogram features: {hist.size} dims, sums to {hist.sum():.6f}")
        for idx in top:
            h, rem = divmod(idx, 64)
            s, v = divmod(rem, 8)
            print(f"    bin (h={h}, s={s}, v={v}) holds {hist[idx]:.3f} of the mass")

        hsv = imaging.rgb_to_hsv(img)
        purple = (hsv[..., 0] > 0.625) & (hsv[..., 0] < 0.875) & (hsv[..., 1] > 0.375)
        print(f"  fraction of pixels in the purple band: {purple.mean():.4f}")

    print("\nThe parasitized image carries extra mass in purple hue bins; that mass")
    print("is exactly what the histogram kNN keys on.")
