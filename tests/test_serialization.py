"""Tests for checkpoint serialization (repro.nn.serialization)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.serialization import (
    read_checkpoint,
    state_dict_nbytes,
    write_checkpoint,
)


@pytest.fixture
def model():
    return nn.Linear(6, 3, rng=np.random.default_rng(0))


class TestSizeAccounting:
    def test_nbytes_counts_raw_payload(self, model):
        state = model.state_dict()
        expected = (6 * 3 + 3) * 8  # float64
        assert state_dict_nbytes(state) == expected

    def test_nbytes_scales_with_model(self):
        small = nn.Linear(4, 2).state_dict()
        large = nn.Linear(40, 20).state_dict()
        assert state_dict_nbytes(large) > state_dict_nbytes(small) * 50

    def test_mlp_larger_than_lr(self):
        """Table IV shape: MLP checkpoints ~7x LR checkpoints."""
        from repro.models import StreamingLR, StreamingMLP
        lr_state = StreamingLR(num_features=10, num_classes=2).state_dict()
        mlp_state = StreamingMLP(num_features=10, num_classes=2).state_dict()
        assert state_dict_nbytes(mlp_state) > 3 * state_dict_nbytes(lr_state)


class TestFileRoundTrip:
    def test_save_and_load(self, model, tmp_path):
        path = tmp_path / "ckpt" / "model.npz"
        written = write_checkpoint(path, model.state_dict(), None)
        assert path.exists()
        assert written == path.stat().st_size
        restored, meta = read_checkpoint(path)
        assert meta is None
        np.testing.assert_array_equal(restored["weight"], model.weight.data)

    def test_creates_parent_directories(self, model, tmp_path):
        path = tmp_path / "a" / "b" / "c.npz"
        write_checkpoint(path, model.state_dict(), None)
        assert path.exists()

    def test_round_trip_preserves_arrays_and_meta(self, model, tmp_path):
        state = model.state_dict()
        path = tmp_path / "model.npz"
        write_checkpoint(path, state, {"batch": 3, "kind": "long"})
        restored, meta = read_checkpoint(path)
        assert meta == {"batch": 3, "kind": "long"}
        assert set(restored) == set(state)
        for name in state:
            np.testing.assert_array_equal(restored[name], state[name])

    def test_restored_state_loads_into_model(self, model, tmp_path):
        path = tmp_path / "model.npz"
        write_checkpoint(path, model.state_dict(), None)
        other = nn.Linear(6, 3, rng=np.random.default_rng(99))
        other.load_state_dict(read_checkpoint(path)[0])
        np.testing.assert_array_equal(other.weight.data, model.weight.data)

    def test_empty_state(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_checkpoint(path, {}, [])
        assert read_checkpoint(path) == ({}, [])

    def test_archive_without_metadata_is_rejected(self, model, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, **model.state_dict())
        with pytest.raises(ValueError, match="not a checkpoint"):
            read_checkpoint(path)
