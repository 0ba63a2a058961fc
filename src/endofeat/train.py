"""Homographic self-supervised fine-tuning loop.

Each iteration draws a batch of frames, warps every frame by a freshly
sampled homography, runs the network on both views, and minimizes the
combined pair loss (with highlight suppression when the specularity
weight is nonzero) with Adam. Adam's constants are fixed: moment decays
0.9 and 0.999, denominator guard 1e-8; only the learning rate is a
setting. All randomness derives from the run seed keyed by (seed,
iteration, slot), so runs are bit-reproducible.

A checkpoint is two np.savez archives (ioutil.write_archive): the f32
weights (network.save_weights) and the ``.opt`` Adam state, which keeps
each moment at its own dtype: integer scalars ``iteration`` and ``step``
plus ``m/<label>`` and ``v/<label>`` moments. Training does not resume
from one; network.load_weights and ioutil.read_archive read them back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import losses, network
from .data import PseudoLabel, warp_label
from .homography import HomographyConfig, correspondence_tensor, sample_homography, to_pixel_frame, warp_image
from .ioutil import fmt, write_archive
from .network import NetworkParams
from .tensor import GradTape, Tensor, backward
from . import tensor as T

_BETA1 = 0.9  # Adam's first-moment decay
_BETA2 = 0.999  # Adam's second-moment decay
_ADAM_EPS = 1e-8  # Adam's denominator guard


class TrainingDivergedError(Exception):
    """Loss became non-finite; .iteration holds the failing step."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"non-finite loss {value!r} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 100
    learning_rate: float = 1e-5
    batch_size: int = 2
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    homography: HomographyConfig = field(default_factory=HomographyConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class TrainingSample:
    image: np.ndarray  # H x W grayscale in [0, 1]
    label: PseudoLabel


@dataclass
class IterationStats:
    iteration: int
    total: float
    detection: float
    descriptor: float
    specularity: float


class AdamState:
    """First/second moment accumulators per parameter label."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: NetworkParams, grads: dict, state: AdamState, config: TrainConfig) -> NetworkParams:
    """One Adam update; returns fresh params, mutates state."""
    state.step += 1
    t = state.step
    tensors = {}
    for label, tensor in params.tensors.items():
        g = grads[label]
        m = state.m.get(label)
        if m is None:
            m = np.zeros_like(tensor.data)
            v = np.zeros_like(tensor.data)
        else:
            v = state.v[label]
        m = _BETA1 * m + (1 - _BETA1) * g
        v = _BETA2 * v + (1 - _BETA2) * g * g
        state.m[label] = m
        state.v[label] = v
        mhat = m / (1 - _BETA1**t)
        vhat = v / (1 - _BETA2**t)
        step = config.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)
        tensors[label] = Tensor(tensor.data - step.astype(tensor.data.dtype))
    return NetworkParams(params.architecture, tensors)


def _iteration_rng(seed: int, iteration: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, iteration, slot)))


def finetune(
    params: NetworkParams,
    samples,
    train_config: TrainConfig = TrainConfig(),
    loss_config: losses.LossConfig = losses.LossConfig(),
    checkpoint_dir=None,
):
    """Fine-tune params on labeled frames; returns (params, stats list).

    Aborts with TrainingDivergedError when the loss goes non-finite. With
    checkpoint_every > 0, periodic checkpoints land in checkpoint_dir.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("finetune needs a nonempty dataset")
    state = AdamState()
    history: list[IterationStats] = []
    for it in range(train_config.iterations):
        batch_rng = _iteration_rng(train_config.seed, it, 0)
        picks = batch_rng.integers(0, len(samples), size=train_config.batch_size)
        grads_acc = None  # the slots' summed gradients, one per params.tensors label
        tot = det = desc = spec = 0.0
        for slot, sample_idx in enumerate(picks):
            sample = samples[int(sample_idx)]
            h_img, w_img = sample.image.shape
            hom_rng = _iteration_rng(train_config.seed, it, 1 + slot)
            h_unit = sample_homography(hom_rng, train_config.homography)
            h_px = to_pixel_frame(h_unit, h_img, w_img)
            warped = warp_image(sample.image, h_px)
            warped_label = warp_label(sample.label, h_px, h_img, w_img)
            corr = correspondence_tensor(h_px, h_img, w_img)

            terms: dict = {}
            with GradTape() as tape:
                heads_a = network.forward(params, sample.image)
                heads_b = network.forward(params, warped)
                loss = losses.specular_pair_loss(
                    sample.image, heads_a, sample.label, warped, heads_b, warped_label,
                    corr, loss_config, terms,
                )
                scaled = T.affine(loss, 1.0 / train_config.batch_size, 0.0)
                grads = backward(tape, scaled, params.tensors.values())
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(it, value)
            tot += value / train_config.batch_size
            det += terms["detection"] / train_config.batch_size
            desc += terms["descriptor"] / train_config.batch_size
            spec += terms["specularity"] / train_config.batch_size
            grads_acc = grads if grads_acc is None else [acc + g for acc, g in zip(grads_acc, grads)]

        if not np.isfinite(tot):
            raise TrainingDivergedError(it, tot)
        params = adam_step(params, dict(zip(params.tensors, grads_acc)), state, train_config)
        history.append(IterationStats(it, tot, det, desc, spec))
        if (
            checkpoint_dir is not None
            and train_config.checkpoint_every > 0
            and (it + 1) % train_config.checkpoint_every == 0
        ):
            save_checkpoint(checkpoint_dir, it + 1, params, state)
    return params, history


# ---------------------------------------------------------------------------
# checkpoints: weights archive + optimizer-state archive
# ---------------------------------------------------------------------------


def checkpoint_paths(directory, iteration: int):
    base = os.path.join(os.fspath(directory), f"checkpoint_{iteration:06d}")
    return base + ".weights", base + ".opt"


def save_checkpoint(directory, iteration: int, params: NetworkParams, state: AdamState) -> None:
    wpath, opath = checkpoint_paths(directory, iteration)
    network.save_weights(params, wpath)
    entries = {"iteration": np.int64(iteration), "step": np.int64(state.step)}
    for label in sorted(state.m):
        entries[f"m/{label}"] = state.m[label]
        entries[f"v/{label}"] = state.v[label]
    write_archive(opath, entries)


def history_csv(history) -> str:
    lines = ["iteration,total,detection,descriptor,specularity"]
    for h in history:
        lines.append(
            f"{h.iteration},{fmt(h.total)},{fmt(h.detection)},{fmt(h.descriptor)},{fmt(h.specularity)}"
        )
    return "".join(l + "\n" for l in lines)
