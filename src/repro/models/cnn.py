"""Streaming CNNs — the paper's appendix models.

Two architectures, both from the appendix:

- **Tabular CNN** (the "three layer CNN" used on the six benchmark
  datasets): one convolution with 32 kernels of size 3 over the feature
  vector treated as a 1-D signal, a max-pooling layer with window 2, and a
  fully connected classifier.
- **Image CNN** (the "five-layer CNN" used on the Animals/Flowers streams):
  two 3×3 convolutions with 64 kernels, two 2×2 max-pooling layers, and a
  fully connected classifier.

:class:`StreamingCNN` selects the architecture from its ``input_shape``:
a 1-tuple ``(d,)`` builds the tabular network, a 3-tuple ``(c, h, w)`` the
image network.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .base import NeuralStreamingModel

__all__ = ["StreamingCNN"]


class StreamingCNN(NeuralStreamingModel):
    """Convolutional streaming learner for tabular signals or images."""

    name = "streaming-cnn"

    def __init__(self, input_shape: tuple[int, ...], num_classes: int,
                 lr: float = 0.05, sgd_steps: int = 1, momentum: float = 0.0,
                 weight_decay: float = 0.0, seed: int = 0,
                 conv_channels: int = 32, image_channels: int = 64):
        input_shape = tuple(int(dim) for dim in input_shape)
        if len(input_shape) not in (1, 3):
            raise ValueError(
                f"input_shape must be (d,) or (c, h, w); got {input_shape}"
            )
        self.input_shape = input_shape
        self.conv_channels = conv_channels
        self.image_channels = image_channels
        num_features = int(np.prod(input_shape))
        super().__init__(num_features, num_classes, lr=lr, sgd_steps=sgd_steps,
                         momentum=momentum, weight_decay=weight_decay, seed=seed)

    @property
    def is_image_model(self) -> bool:
        return len(self.input_shape) == 3

    def _build(self, rng: np.random.Generator) -> nn.Module:
        if self.is_image_model:
            return self._build_image(rng)
        return self._build_tabular(rng)

    def _build_tabular(self, rng: np.random.Generator) -> nn.Module:
        (width,) = self.input_shape
        if width < 3:
            raise ValueError(f"tabular CNN needs >= 3 features; got {width}")
        pooled = width // 2  # conv keeps width (pad 1), pool halves it
        return nn.Sequential(
            nn.Conv2d(1, self.conv_channels, kernel_size=(1, 3),
                      padding=(0, 1), rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(kernel_size=(1, 2)),
            nn.Flatten(),
            nn.Linear(self.conv_channels * pooled, self.num_classes, rng=rng),
        )

    def _build_image(self, rng: np.random.Generator) -> nn.Module:
        channels, height, width = self.input_shape
        if height < 4 or width < 4:
            raise ValueError(
                f"image CNN needs >= 4x4 input; got {height}x{width}"
            )
        out_h, out_w = height // 2 // 2, width // 2 // 2
        hidden = self.image_channels
        return nn.Sequential(
            nn.Conv2d(channels, hidden, kernel_size=3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(hidden, hidden, kernel_size=3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(hidden * out_h * out_w, self.num_classes, rng=rng),
        )

    @property
    def module_input_shape(self) -> tuple:
        """``(c, h, w)`` for images; a tabular row is a one-pixel-tall,
        one-channel signal, ``(1, 1, d)``."""
        if self.is_image_model:
            return self.input_shape
        return (1, 1) + self.input_shape

    def _config(self) -> dict:
        return {
            "input_shape": self.input_shape,
            "num_classes": self.num_classes,
            "lr": self.lr,
            "sgd_steps": self.sgd_steps,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "seed": self.seed,
            "conv_channels": self.conv_channels,
            "image_channels": self.image_channels,
        }
