"""Tests for repro.analysis: shape inference, checkpoint compat, lint."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.analysis import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    CheckpointIncompatibleError,
    GraphValidationError,
    TensorSpec,
    check_state_dict,
    infer_output_spec,
    infer_shapes,
    input_spec_for,
    lint_paths,
    lint_source,
    register_shape_rule,
    run_analyze,
    state_spec,
    validate_model,
    verify_checkpoint_file,
)
from repro.cli import main as cli_main
from repro.core import Learner, load_learner, save_learner
from repro.core.knowledge import KnowledgeMatch, KnowledgeStore
from repro.models import StreamingCNN, StreamingLR, StreamingMLP
from repro.nn.serialization import write_checkpoint
from repro.obs import CheckpointRejected, Observability

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Symbolic shape inference
# ---------------------------------------------------------------------------


class TestShapeInference:
    def test_linear_chain_symbolic_batch(self):
        module = nn.Sequential(
            nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2),
        )
        traces = infer_shapes(module, TensorSpec(("N", 4)))
        assert len(traces) == 3
        assert traces[0].output.shape == ("N", 8)
        assert traces[-1].output.shape == ("N", 2)
        assert traces[-1].output.dtype == "float64"

    def test_mismatched_linear_chain_rejected_statically(self):
        # No forward pass ever runs: validation is purely symbolic.
        module = nn.Sequential(nn.Linear(4, 8), nn.Linear(9, 2))
        with pytest.raises(GraphValidationError, match=r"layer1.*9.*8|8.*9"):
            infer_shapes(module, TensorSpec(("N", 4)))

    def test_wrong_input_width_rejected(self):
        with pytest.raises(GraphValidationError, match="7"):
            infer_output_spec(nn.Linear(4, 2), TensorSpec(("N", 7)))

    def test_conv_channel_mismatch_rejected(self):
        module = nn.Conv2d(3, 8, kernel_size=3)
        with pytest.raises(GraphValidationError, match="channels"):
            infer_output_spec(module, TensorSpec(("N", 1, 8, 8)))

    def test_conv_empty_output_rejected(self):
        module = nn.Conv2d(1, 8, kernel_size=9)
        with pytest.raises(GraphValidationError, match="empty"):
            infer_output_spec(module, TensorSpec(("N", 1, 4, 4)))

    def test_symbolic_spatial_dim_rejected_cleanly(self):
        module = nn.Conv2d(1, 8, kernel_size=3)
        with pytest.raises(GraphValidationError, match="concrete"):
            infer_output_spec(module, TensorSpec(("N", 1, "H", 8)))

    def test_unregistered_module_type_names_the_hook(self):
        class Mystery(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(GraphValidationError,
                           match="register_shape_rule"):
            infer_shapes(nn.Sequential(Mystery()), TensorSpec(("N", 4)))

        @register_shape_rule(Mystery)
        def _mystery_rule(module, spec):
            return spec

        out = infer_output_spec(nn.Sequential(Mystery()), TensorSpec(("N", 4)))
        assert out.shape == ("N", 4)

    def test_flatten_and_pool_arithmetic(self):
        module = nn.Sequential(
            nn.Conv2d(1, 4, kernel_size=3, padding=1),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 3),
        )
        out = infer_output_spec(module, TensorSpec(("N", 1, 8, 8)))
        assert out.shape == ("N", 3)


class TestModelZoo:
    ZOO = [
        StreamingLR(num_features=6, num_classes=3, seed=0),
        StreamingMLP(num_features=6, num_classes=3, hidden=(16, 8), seed=0),
        StreamingCNN(input_shape=(6,), num_classes=3, seed=0),
        StreamingCNN(input_shape=(1, 8, 8), num_classes=4, seed=0),
    ]

    @pytest.mark.parametrize("model", ZOO, ids=lambda m: m.name + str(
        getattr(m, "input_shape", "")))
    def test_zoo_validates_and_matches_real_forward(self, model, rng):
        traces = validate_model(model)
        assert traces[-1].output.shape == ("N", model.num_classes)

        # Re-infer with a concrete batch and compare against an actual
        # forward pass — the symbolic arithmetic must agree with reality.
        spec = input_spec_for(model, batch=5)
        inferred = infer_output_spec(model.module, spec)
        x = rng.normal(size=(5, model.num_features))
        proba = model.predict_proba(x)
        assert tuple(inferred.shape) == proba.shape

    def test_validate_model_catches_bad_head(self):
        model = StreamingMLP(num_features=6, num_classes=3, hidden=(8,),
                             seed=0)
        # Sabotage the head: shape-consistent, but claims 3 classes while
        # producing 7.
        model.module.layer2 = nn.Linear(8, 7)
        model.module.layers[2] = model.module.layer2
        with pytest.raises(GraphValidationError, match="num_classes"):
            validate_model(model)

    def test_validate_model_requires_nn_module(self):
        with pytest.raises(TypeError, match="no repro.nn module"):
            validate_model(object())


# ---------------------------------------------------------------------------
# Checkpoint compatibility
# ---------------------------------------------------------------------------


def mlp_module():
    return StreamingMLP(num_features=5, num_classes=3, hidden=(4,),
                        seed=0).module


class TestCheckpointCompat:
    def test_own_state_is_compatible(self):
        module = mlp_module()
        report = check_state_dict(module, module.state_dict())
        assert report.ok
        assert report.checked == len(module.state_dict())

    def test_truncated_blob_rejected(self):
        module = mlp_module()
        state = module.state_dict()
        state.popitem()
        report = check_state_dict(module, state)
        assert not report.ok
        assert report.problems[0].kind == "missing"

    def test_transposed_blob_rejected(self):
        module = mlp_module()
        state = module.state_dict()
        state["layer0.weight"] = state["layer0.weight"].T
        report = check_state_dict(module, state)
        assert [p.kind for p in report.problems] == ["shape"]
        assert "layer0.weight" in report.problems[0].name

    def test_re_dtyped_blob_rejected(self):
        module = mlp_module()
        state = module.state_dict()
        state["layer0.bias"] = state["layer0.bias"].astype(np.int64)
        report = check_state_dict(module, state)
        assert [p.kind for p in report.problems] == ["dtype"]

    def test_float32_width_change_allowed(self):
        module = mlp_module()
        state = {k: v.astype(np.float32)
                 for k, v in module.state_dict().items()}
        assert check_state_dict(module, state).ok

    def test_unexpected_key_rejected(self):
        module = mlp_module()
        state = module.state_dict()
        state["ghost.weight"] = np.zeros((2, 2))
        kinds = {p.kind for p in check_state_dict(module, state).problems}
        assert kinds == {"unexpected"}

    def test_typed_error_names_parameter(self):
        module = mlp_module()
        state = module.state_dict()
        state["layer0.weight"] = state["layer0.weight"].T
        report = check_state_dict(module, state)
        with pytest.raises(CheckpointIncompatibleError,
                           match="layer0.weight") as excinfo:
            report.raise_if_incompatible(context="unit test")
        assert excinfo.value.problems[0].kind == "shape"
        assert "unit test" in str(excinfo.value)

    def test_reference_may_be_plain_state_dict(self):
        module = mlp_module()
        reference = module.state_dict()
        spec = state_spec(reference)
        assert all(isinstance(value, TensorSpec) for value in spec.values())
        bad = dict(reference)
        bad["layer0.bias"] = np.zeros(99)
        assert not check_state_dict(reference, bad).ok

    def test_verify_checkpoint_file(self, tmp_path):
        module = mlp_module()
        path = tmp_path / "ckpt.npz"
        write_checkpoint(path, module.state_dict(), None)
        assert verify_checkpoint_file(path, module).ok
        other = StreamingMLP(num_features=9, num_classes=3, hidden=(4,),
                             seed=0).module
        assert not verify_checkpoint_file(path, other).ok


class TestLoadStateDictTightened:
    def test_shape_error_names_parameter(self):
        module = mlp_module()
        state = module.state_dict()
        state["layer2.weight"] = state["layer2.weight"].T
        with pytest.raises(ValueError, match="parameter 'layer2.weight'"):
            module.load_state_dict(state)

    def test_dtype_error_names_parameter(self):
        module = mlp_module()
        state = module.state_dict()
        state["layer0.bias"] = state["layer0.bias"].astype(np.complex128)
        with pytest.raises(TypeError, match="parameter 'layer0.bias'"):
            module.load_state_dict(state)

    def test_no_partial_write_on_late_failure(self):
        # layer2.weight is invalid; layer0.* (validated earlier) must not
        # have been written when the error surfaces.
        module = mlp_module()
        before = module.state_dict()
        state = module.state_dict()
        for key in state:
            state[key] = state[key] + 1.0
        state["layer2.weight"] = state["layer2.weight"].T
        with pytest.raises(ValueError):
            module.load_state_dict(state)
        after = module.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_float32_still_loads(self):
        module = mlp_module()
        state = {k: v.astype(np.float32)
                 for k, v in module.state_dict().items()}
        module.load_state_dict(state)
        assert module.state_dict()["layer0.weight"].dtype == np.float64


# ---------------------------------------------------------------------------
# KnowledgeStore.restore gating + CheckpointRejected event
# ---------------------------------------------------------------------------


class TestKnowledgeRestoreGate:
    def make_store(self):
        obs = Observability.in_memory()
        return KnowledgeStore(capacity=4, obs=obs), obs

    def test_compatible_restore_loads_weights(self):
        store, _ = self.make_store()
        donor = StreamingLR(num_features=4, num_classes=2, seed=1)
        target = StreamingLR(num_features=4, num_classes=2, seed=2)
        entry = store.preserve(np.zeros(2), donor.state_dict(), "short",
                               disorder=0.1, batch_index=3)
        store.restore(entry, target)
        np.testing.assert_allclose(target.state_dict()["weight"],
                                   donor.state_dict()["weight"])

    def test_incompatible_restore_is_typed_error_and_event(self):
        store, obs = self.make_store()
        donor = StreamingLR(num_features=5, num_classes=2, seed=1)
        target = StreamingLR(num_features=4, num_classes=2, seed=2)
        entry = store.preserve(np.zeros(2), donor.state_dict(), "short",
                               disorder=0.1, batch_index=7)
        before = target.state_dict()

        with pytest.raises(CheckpointIncompatibleError, match="batch 7"):
            store.restore(entry, target)

        # Nothing was written to the target model.
        np.testing.assert_array_equal(target.state_dict()["weight"],
                                      before["weight"])
        rejected = obs.sink.events_of(CheckpointRejected)
        assert len(rejected) == 1
        assert rejected[0].source == "knowledge"
        assert rejected[0].batch == 7
        assert rejected[0].model_kind == "short"
        assert rejected[0].problems >= 1
        snapshot = obs.registry.snapshot()
        series = snapshot["freeway_checkpoints_rejected_total"]["series"]
        assert sum(entry["value"] for entry in series) == 1
        assert series[0]["labels"] == {"source": "knowledge"}

    def test_learner_verify_pending_reuse_blocked_safely(self):
        factory = lambda: StreamingLR(num_features=4, num_classes=2, seed=0)
        obs = Observability.in_memory()
        learner = Learner(factory, num_models=1, seed=0, obs=obs)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        learner.update(x, y)
        before = learner.ensemble.levels[0].model.state_dict()

        bogus = StreamingLR(num_features=9, num_classes=2, seed=0)
        entry = learner.knowledge.preserve(
            np.zeros(2), bogus.state_dict(), "short", 0.1, batch_index=1)
        learner._pending_reuse = KnowledgeMatch(entry=entry, distance=0.05)
        learner.update(x, y)  # must not raise, must not warm-start

        after = learner.ensemble.levels[0].model.state_dict()
        assert before["weight"].shape == after["weight"].shape
        assert obs.sink.events_of(CheckpointRejected)


# ---------------------------------------------------------------------------
# Persistence gating
# ---------------------------------------------------------------------------


class TestPersistenceGate:
    def test_tampered_checkpoint_rejected_with_typed_error(self, tmp_path):
        factory = lambda: StreamingMLP(num_features=8, num_classes=3,
                                       hidden=(6,), seed=0)
        learner = Learner(factory, num_models=2, window_batches=4, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.normal(size=(64, 8))
            y = rng.integers(0, 3, size=64)
            learner.update(x, y)
        path = tmp_path / "ckpt.npz"
        save_learner(learner, path)

        # Transpose one level-0 weight in the archive.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        key = "level0/layer0.weight"
        assert key in arrays
        arrays[key] = arrays[key].T
        np.savez(path, **arrays)

        fresh = Learner(factory, num_models=2, window_batches=4, seed=0)
        with pytest.raises(CheckpointIncompatibleError,
                           match="granularity level 0"):
            load_learner(fresh, path)


# ---------------------------------------------------------------------------
# Lint rules
# ---------------------------------------------------------------------------


def findings_for(source, path="pkg/module.py"):
    return lint_source(source, path)


def active_codes(source, path="pkg/module.py"):
    return [f.code for f in findings_for(source, path) if not f.suppressed]


class TestLintRules:
    def test_rep001_legacy_global_rng(self):
        src = '__all__ = []\nimport numpy as np\nnp.random.seed(0)\nvalue = np.random.rand(3)\n'
        assert active_codes(src) == ["REP001", "REP001"]

    def test_rep001_unseeded_default_rng(self):
        src = '__all__ = []\nimport numpy as np\nrng = np.random.default_rng()\n'
        assert active_codes(src) == ["REP001"]

    def test_rep001_seeded_is_clean(self):
        src = ('__all__ = []\nimport numpy as np\n'
               'rng = np.random.default_rng(42)\n'
               'gen: np.random.Generator = rng\n')
        assert active_codes(src) == []

    def test_rep001_suppressed(self):
        src = ('__all__ = []\nimport numpy as np\n'
               'rng = np.random.default_rng()  # repro: noqa[REP001] — opt-out\n')
        findings = findings_for(src)
        assert [f.code for f in findings] == ["REP001"]
        assert findings[0].suppressed

    def test_rep002_data_mutation_outside_nn(self):
        src = '__all__ = []\ntensor.data = tensor.data * 2\ntensor.data[0] = 1\n'
        assert active_codes(src) == ["REP002", "REP002"]

    def test_rep002_allowed_inside_nn(self):
        src = 'tensor.data = tensor.data * 2\n'
        assert active_codes(src, path="src/repro/nn/optim.py") == []

    def test_rep003_float_equality_in_core(self):
        src = '__all__ = []\nif x.std() == 0:\n    pass\nok = y == 0.5\n'
        assert active_codes(src, path="src/repro/core/thing.py") == \
            ["REP003", "REP003"]

    def test_rep003_only_in_shift_and_core(self):
        src = '__all__ = []\nok = y == 0.5\n'
        assert active_codes(src, path="src/repro/data/thing.py") == []

    def test_rep003_int_and_string_equality_clean(self):
        src = ('__all__ = []\nif count == 0:\n    pass\n'
               'if kind != "auto":\n    pass\n')
        assert active_codes(src, path="src/repro/core/thing.py") == []

    def test_rep004_swallowing_broad_except(self):
        src = ('__all__ = []\ntry:\n    step()\n'
               'except Exception:\n    pass\n')
        assert active_codes(src) == ["REP004"]

    def test_rep004_bare_except(self):
        src = '__all__ = []\ntry:\n    step()\nexcept:\n    pass\n'
        assert active_codes(src) == ["REP004"]

    def test_rep004_reraise_is_clean(self):
        src = ('__all__ = []\ntry:\n    step()\n'
               'except Exception:\n    log()\n    raise\n')
        assert active_codes(src) == []

    def test_rep004_narrow_except_clean(self):
        src = '__all__ = []\ntry:\n    step()\nexcept ValueError:\n    pass\n'
        assert active_codes(src) == []

    def test_rep005_direct_sink_emit(self):
        src = '__all__ = []\nself.obs.sink.emit(event)\n'
        assert active_codes(src) == ["REP005"]

    def test_rep005_facade_emit_clean(self):
        src = '__all__ = []\nobs.emit(event)\n'
        assert active_codes(src) == []

    def test_rep005_allowed_inside_obs(self):
        src = 'self.sink.emit(record)\n'
        assert active_codes(src, path="src/repro/obs/facade.py") == []

    def test_rep006_public_module_without_all(self):
        src = 'def shiny():\n    return 1\n'
        findings = findings_for(src)
        assert [f.code for f in findings] == ["REP006"]
        assert findings[0].line == 1

    def test_rep006_private_module_exempt(self):
        src = 'def shiny():\n    return 1\n'
        assert active_codes(src, path="pkg/_private.py") == []
        assert active_codes(src, path="pkg/__main__.py") == []

    def test_rep006_suppressed_on_line_one(self):
        src = '# repro: noqa[REP006]\ndef shiny():\n    return 1\n'
        findings = findings_for(src)
        assert findings[0].suppressed

    def test_rep007_entry_loop_in_core(self):
        src = ('__all__ = []\nfor entry in self._entries:\n'
               '    total += entry.weight\n')
        assert active_codes(src, path="src/repro/core/window.py") == \
            ["REP007"]

    def test_rep007_sees_through_wrappers(self):
        src = ('__all__ = []\n'
               'for i, entry in enumerate(reversed(window.entries)):\n'
               '    use(entry)\n')
        assert active_codes(src, path="src/repro/core/window.py") == \
            ["REP007"]

    def test_rep007_outside_core_clean(self):
        src = '__all__ = []\nfor entry in self._entries:\n    use(entry)\n'
        assert active_codes(src, path="src/repro/shift/thing.py") == []

    def test_rep007_other_iterables_clean(self):
        src = '__all__ = []\nfor level in self.levels:\n    use(level)\n'
        assert active_codes(src, path="src/repro/core/thing.py") == []

    def test_rep007_noqa_escape_hatch(self):
        src = ('__all__ = []\n'
               'for entry in self._entries:  '
               '# repro: noqa[REP007] — serialization, off the hot path\n'
               '    save(entry)\n')
        findings = findings_for(src, path="src/repro/core/io.py")
        assert [f.code for f in findings] == ["REP007"]
        assert findings[0].suppressed

    def test_rep012_allocation_in_replay_kernel(self):
        src = ('__all__ = []\nimport numpy as np\n'
               '@replay_kernel\n'
               'def forward(self, arena, x):\n'
               '    scratch = np.zeros((8, 8))\n'
               '    t = Tensor(x)\n'
               '    grad = np.empty_like(x)\n'
               '    return scratch, t, grad\n')
        assert active_codes(src) == ["REP012", "REP012", "REP012"]

    def test_rep012_undecorated_function_clean(self):
        src = ('__all__ = []\nimport numpy as np\n'
               'def forward(self, x):\n'
               '    return np.zeros((8, 8))\n')
        assert active_codes(src) == []

    def test_rep012_arena_writes_clean(self):
        src = ('__all__ = []\nimport numpy as np\n'
               '@replay_kernel\n'
               'def forward(self, arena, x):\n'
               '    np.matmul(x, self.w, out=arena.out)\n'
               '    np.maximum(arena.out, 0.0, out=arena.out)\n'
               '    return arena.out\n')
        assert active_codes(src) == []

    def test_rep012_noqa_escape_hatch(self):
        src = ('__all__ = []\nimport numpy as np\n'
               '@replay_kernel\n'
               'def forward(self, arena, x):\n'
               '    return np.zeros(3)  '
               '# repro: noqa[REP012] — capture-time only\n')
        findings = findings_for(src)
        assert [f.code for f in findings] == ["REP012"]
        assert findings[0].suppressed

    def test_blanket_noqa(self):
        src = '__all__ = []\nimport numpy as np\nnp.random.seed(0)  # repro: noqa\n'
        assert active_codes(src) == []

    def test_rep000_syntax_error(self):
        assert [f.code for f in findings_for("def broken(:\n")] == ["REP000"]


FIXTURE_ALL_RULES = '''\
import numpy as np

def stream_loop(batches, tensor, obs, threshold):
    np.random.seed(0)
    rng = np.random.default_rng()
    for batch in batches:
        tensor.data = tensor.data * 0.5
        if batch.distance() == 0.0:
            continue
        try:
            obs.sink.emit(batch)
        except Exception:
            pass
    return threshold
'''


class TestRunner:
    def write_fixture(self, tmp_path):
        # Path contains "core" so REP003 is in scope.
        fixture_dir = tmp_path / "core"
        fixture_dir.mkdir()
        (fixture_dir / "violations.py").write_text(FIXTURE_ALL_RULES)
        return fixture_dir

    def test_fixture_trips_every_rule(self, tmp_path):
        fixture_dir = self.write_fixture(tmp_path)
        findings = lint_paths([fixture_dir])
        assert {f.code for f in findings if not f.suppressed} == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        }

    def test_json_output_and_exit_code(self, tmp_path, capsys):
        fixture_dir = self.write_fixture(tmp_path)
        code = run_analyze([fixture_dir], output_format="json")
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert set(payload["counts"]) == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        }
        assert payload["files"] == 1
        assert all({"code", "message", "path", "line", "col"} <=
                   set(f) for f in payload["findings"])

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('__all__ = ["f"]\ndef f():\n    return 1\n')
        assert run_analyze([clean]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert run_analyze([tmp_path / "nope"]) == EXIT_USAGE

    def test_suppressed_findings_reported_in_json(self, tmp_path, capsys):
        target = tmp_path / "suppressed.py"
        target.write_text(
            '__all__ = []\nimport numpy as np\n'
            'np.random.seed(0)  # repro: noqa[REP001]\n'
        )
        assert run_analyze([target], output_format="json") == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["suppressed"]) == 1


class TestTreeIsClean:
    def test_src_analyzes_clean(self):
        findings = [f for f in lint_paths([SRC]) if not f.suppressed]
        assert findings == [], "\n".join(f.describe() for f in findings)


class TestCli:
    def test_analyze_subcommand_clean_tree(self):
        assert cli_main(["analyze", str(SRC)]) == EXIT_CLEAN

    def test_analyze_subcommand_check_models(self, capsys):
        assert cli_main(["analyze", str(SRC), "--check-models"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "model zoo" in out
        assert "cnn-image" in out

    def test_analyze_subcommand_json_failure(self, tmp_path, capsys):
        fixture_dir = tmp_path / "core"
        fixture_dir.mkdir()
        (fixture_dir / "violations.py").write_text(FIXTURE_ALL_RULES)
        code = cli_main(["analyze", str(fixture_dir), "--format", "json"])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
