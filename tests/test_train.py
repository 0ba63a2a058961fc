"""Adam updates, fine-tuning determinism, divergence, checkpoints."""

import io
import os

import numpy as np
import pytest

from endofeat import losses, train
from endofeat.data import PseudoLabel
from endofeat.homography import HomographyConfig
from endofeat.ioutil import read_archive
from endofeat.losses import LossConfig
from endofeat.network import forward, init_params, load_weights
from endofeat.tensor import GradTape, Tensor, backward
from endofeat.train import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    TrainingSample,
    adam_step,
    checkpoint_paths,
    finetune,
    history_csv,
    save_checkpoint,
)

from helpers import _affine, rng, toy_architecture


def mild_config(**kw):
    return TrainConfig(
        homography=HomographyConfig(
            perspective=0.01, scale_min=0.95, scale_max=1.05, rotation_deg=5.0, translation=0.02
        ),
        **kw,
    )


def toy_samples(n=3, size=16, seed=40):
    samples = []
    for i in range(n):
        r = rng((seed, i))
        img = r.uniform(0.05, 0.7, (size, size))
        pts = np.stack(
            [r.integers(0, size, size=4), r.integers(0, size, size=4)], axis=1
        )
        samples.append(TrainingSample(img, PseudoLabel(pts, r.uniform(0.2, 1.0, 4))))
    return samples


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    TrainConfig(learning_rate=0.0)  # a frozen run is allowed


def test_adam_first_step_matches_closed_form():
    params = init_params(toy_architecture(), seed=1)
    cfg = TrainConfig(learning_rate=1e-2)
    grads = {
        label: rng((41, i)).normal(size=t.shape)
        for i, (label, t) in enumerate(params.tensors.items())
    }
    state = AdamState(params)
    updated = adam_step(params, grads, state, cfg)
    assert state.step == 1
    for label, old in params.tensors.items():
        g = grads[label]
        # after one step mhat == g and vhat == g*g exactly; Adam's eps is 1e-8
        want = old.data - cfg.learning_rate * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(updated.tensors[label].data, want, rtol=1e-12, atol=1e-15)


def test_adam_step_keeps_labels_and_checkpoint_names_them(tmp_path):
    params = init_params(toy_architecture(), seed=1, dtype=np.float32)
    labels = list(params.tensors)
    grads = {label: rng((44, i)).normal(size=t.shape) for i, (label, t) in enumerate(params.tensors.items())}
    state = AdamState(params)
    for label, t in params.tensors.items():
        for moment in (state.m[label], state.v[label]):
            assert moment.dtype == t.dtype and moment.shape == t.shape and not moment.any()
    updated = adam_step(adam_step(params, grads, state, TrainConfig()), grads, state, TrainConfig())
    assert list(updated.tensors) == labels
    assert list(state.m) == list(state.v) == labels
    save_checkpoint(tmp_path, 2, updated, state)
    entries = _read_checkpoint(tmp_path, 2)[1]
    assert entries.keys() == {"iteration", "step"} | {f"{k}/{label}" for k in "mv" for label in labels}


def test_zero_learning_rate_keeps_params():
    params = init_params(toy_architecture(), seed=2)
    out, history = finetune(params, toy_samples(), mild_config(iterations=2, learning_rate=0.0))
    assert len(history) == 2
    for (la, ta), (lb, tb) in zip(params.tensors.items(), out.tensors.items()):
        assert la == lb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_finetune_is_deterministic():
    params = init_params(toy_architecture(), seed=3)
    cfg = mild_config(iterations=3, learning_rate=1e-3, seed=17)
    out1, hist1 = finetune(params, toy_samples(), cfg)
    out2, hist2 = finetune(params, toy_samples(), cfg)
    assert [h.total for h in hist1] == [h.total for h in hist2]
    for ta, tb in zip(out1.tensors.values(), out2.tensors.values()):
        np.testing.assert_array_equal(ta.data, tb.data)

    hist3 = finetune(params, toy_samples(), mild_config(iterations=3, learning_rate=1e-3, seed=18))[1]
    assert [h.total for h in hist3] != [h.total for h in hist1]


def test_finetune_reduces_loss():
    params = init_params(toy_architecture(), seed=4)
    cfg = mild_config(iterations=8, learning_rate=2e-3, seed=5)
    _, history = finetune(params, toy_samples(), cfg, LossConfig(specularity_weight=0.0))
    assert history[-1].total < history[0].total
    assert all(np.isfinite(h.total) for h in history)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_mean_gives_each_slot_the_scaled_loss_gradient(monkeypatch, dtype):
    # Each slot's gradients are backward's from 1 / batch_size, summed in slot
    # order: byte for byte those of scale * loss recorded as its own op and
    # replayed from 1. At batch size 3, unlike 2, scaling the summed
    # gradients instead changes their bytes.
    params = init_params(toy_architecture(), seed=12, dtype=dtype)
    specular_pair_loss = losses.specular_pair_loss
    slots, steps = [], []

    def spy_loss(image_a, heads_a, label_a, image_b, heads_b, label_b, corr, config):
        slots.append((image_a, label_a, image_b, label_b, corr, config))
        return specular_pair_loss(image_a, heads_a, label_a, image_b, heads_b, label_b, corr, config)

    def spy_step(params, grads, state, config):
        steps.append(grads)
        return params

    monkeypatch.setattr(losses, "specular_pair_loss", spy_loss)
    monkeypatch.setattr(train, "adam_step", spy_step)
    finetune(params, toy_samples(), mild_config(iterations=1, batch_size=3, learning_rate=1e-3))
    assert len(slots) == 3 and len(steps) == 1

    want = None
    for image_a, label_a, image_b, label_b, corr, config in slots:
        with GradTape() as tape:
            loss, _ = specular_pair_loss(image_a, forward(params, image_a), label_a,
                                         image_b, forward(params, image_b), label_b, corr, config)
            grads = backward(tape, _affine(loss, 1.0 / 3, 0.0), params.tensors.values())
        want = grads if want is None else [acc + g for acc, g in zip(want, grads)]
    assert all(g.dtype == dtype for g in want)
    assert [g.tobytes() for g in steps[0].values()] == [g.tobytes() for g in want]


def test_finetune_rejects_empty_dataset():
    params = init_params(toy_architecture(), seed=5)
    with pytest.raises(ValueError, match="nonempty"):
        finetune(params, [], mild_config(iterations=1))


def test_divergence_raises_with_iteration():
    params = init_params(toy_architecture(), seed=6)
    nan_kernel = Tensor(np.full(params.tensors["det_b.kernel"].shape, np.nan))
    bad = type(params)(params.architecture, {**params.tensors, "det_b.kernel": nan_kernel})
    with pytest.raises(TrainingDivergedError) as err:
        finetune(bad, toy_samples(), mild_config(iterations=2))
    assert err.value.iteration == 0


def _read_checkpoint(directory, iteration):
    """(params, .opt entries) of a checkpoint, read with the package's readers."""
    wpath, opath = checkpoint_paths(directory, iteration)
    return load_weights(wpath), read_archive(opath, AssertionError)


def test_checkpoint_round_trip(tmp_path):
    params = init_params(toy_architecture(), seed=7, dtype=np.float32)
    state = AdamState(params)
    state.step = 9
    for i, (label, tensor) in enumerate(params.tensors.items()):
        state.m[label] = rng((42, i, 0)).normal(size=tensor.shape)
        state.v[label] = rng((42, i, 1)).uniform(0, 1, size=tensor.shape)
    save_checkpoint(tmp_path, 12, params, state)

    back, entries = _read_checkpoint(tmp_path, 12)
    for (la, ta), (lb, tb) in zip(params.tensors.items(), back.tensors.items()):
        assert la == lb
        np.testing.assert_array_equal(ta.data, tb.data)
    # the documented .opt layout: integer scalars plus m/<label> and v/<label> moments
    assert entries.keys() == {"iteration", "step"} | {f"{k}/{label}" for k in "mv" for label in state.m}
    for key, want in (("iteration", 12), ("step", 9)):
        assert entries[key].shape == () and entries[key].dtype == np.int64 and int(entries[key]) == want
    for label in state.m:
        for got, want in ((entries[f"m/{label}"], state.m[label]), (entries[f"v/{label}"], state.v[label])):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)


def test_finetune_writes_periodic_checkpoints(tmp_path):
    params = init_params(toy_architecture(), seed=8)
    cfg = mild_config(iterations=4, learning_rate=1e-4, checkpoint_every=2)
    finetune(params, toy_samples(), cfg, checkpoint_dir=tmp_path)
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(p) for it in (2, 4) for p in checkpoint_paths(tmp_path, it)
    )


def test_float32_finetune_checkpoint_loads_back(tmp_path):
    params = init_params(toy_architecture(), seed=10, dtype=np.float32)
    cfg = mild_config(iterations=2, learning_rate=1e-3, checkpoint_every=2)
    tuned, _ = finetune(params, toy_samples(), cfg, checkpoint_dir=tmp_path)
    back, entries = _read_checkpoint(tmp_path, 2)
    assert int(entries["iteration"]) == 2 and int(entries["step"]) == 2
    for (label, want), (back_label, got) in zip(tuned.tensors.items(), back.tensors.items()):
        assert back_label == label
        np.testing.assert_array_equal(got.data, want.data)
        for kind in "mv":
            moment = entries[f"{kind}/{label}"]
            assert moment.dtype == np.float32 and moment.shape == want.shape


# --- malformed optimizer state ---------------------------------------------


class _OptError(Exception):
    pass


def _moment_entries(params):
    entries = {"iteration": np.int64(5), "step": np.int64(5)}
    for i, (label, tensor) in enumerate(params.tensors.items()):
        entries[f"m/{label}"] = rng((43, i, 0)).normal(size=tensor.shape).astype(np.float32)
        entries[f"v/{label}"] = rng((43, i, 1)).uniform(0, 1, size=tensor.shape).astype(np.float32)
    return entries


def _savez_bytes(entries) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(.opt path, valid savez entries) of a float32 toy checkpoint at iteration 5."""
    directory = tmp_path_factory.mktemp("checkpoint")
    params = init_params(toy_architecture(), seed=11, dtype=np.float32)
    save_checkpoint(directory, 5, params, AdamState(params))
    return checkpoint_paths(directory, 5)[1], _moment_entries(params)


_LABEL = "enc0_c0.kernel"


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _encrypted_flag(entries) -> bytes:
    blob = bytearray(_savez_bytes(entries))
    blob[blob.index(b"PK\x01\x02") + 8] |= 0x01  # first central-directory entry
    return bytes(blob)


def _compressed(entries) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **entries)
    return buffer.getvalue()


def _old_text_format(entries) -> bytes:
    values = " ".join(repr(float(x)) for x in entries[f"m/{_LABEL}"].ravel())
    return f"iteration 5\nstep 5\nm {_LABEL} {values}\n".encode()


# archive-level damage: read_archive, the .opt reader, rejects each of these
_BAD_OPT = {
    "old text format": _old_text_format,
    "empty": lambda e: b"",
    "truncated": lambda e: _savez_bytes(e)[:-100],
    "bare npy": lambda e: _npy_bytes(e[f"m/{_LABEL}"]),
    "object moment": lambda e: _savez_bytes({**e, f"m/{_LABEL}": e[f"m/{_LABEL}"].astype(object)}),
    "encrypted flag": _encrypted_flag,
    "compressed": _compressed,
}


def test_optimizer_state_layout_loads(saved_checkpoint):
    # the documented layout, written by np.savez directly, reads back unchanged
    opath, entries = saved_checkpoint
    with open(opath, "wb") as f:
        f.write(_savez_bytes(entries))
    back = read_archive(opath, _OptError)
    assert back.keys() == entries.keys()
    for key, want in entries.items():
        assert back[key].dtype == want.dtype
        np.testing.assert_array_equal(back[key], want)


@pytest.mark.parametrize("case", list(_BAD_OPT))
def test_malformed_optimizer_state_is_typed(saved_checkpoint, case):
    opath, entries = saved_checkpoint
    with open(opath, "wb") as f:
        f.write(_BAD_OPT[case](entries))
    with pytest.raises(_OptError, match=os.path.basename(opath)):
        read_archive(opath, _OptError)


def test_history_csv_layout():
    params = init_params(toy_architecture(), seed=9)
    _, history = finetune(params, toy_samples(), mild_config(iterations=2, learning_rate=0.0))
    text = history_csv(history)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,total,detection,descriptor,specularity"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == history[0].total
