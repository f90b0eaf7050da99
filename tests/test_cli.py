"""Tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn.plan import clear_plans

STAGE_SPANS = ("learner.assess", "learner.select", "learner.infer",
               "learner.train", "learner.experience", "learner.preserve")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.framework == "freewayml"
        assert args.dataset == "electricity"
        assert args.model == "mlp"

    def test_framework_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--framework", "bogus"])

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "bogus"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("hyperplane", "sea", "airlines", "covertype",
                     "nsl-kdd", "electricity", "animals", "flowers"):
            assert name in out

    def test_run_freewayml(self, capsys):
        code = main(["run", "--dataset", "electricity",
                     "--batches", "10", "--batch-size", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "G_acc" in out
        assert "freewayml" in out

    def test_run_baseline(self, capsys):
        code = main(["run", "--framework", "river", "--dataset", "sea",
                     "--batches", "8", "--batch-size", "64"])
        assert code == 0
        assert "river" in capsys.readouterr().out

    def test_run_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--dataset", "bogus", "--batches", "4"])

    def test_compare(self, capsys):
        code = main(["compare", "--dataset", "electricity",
                     "--model", "lr", "--batches", "8",
                     "--batch-size", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flink-ml" in out
        assert "freewayml" in out
        assert "*" in out  # best framework starred

    def test_run_on_csv(self, tmp_path, capsys, rng):
        x = rng.normal(size=(300, 3))
        y = (x[:, 0] > 0).astype(int)
        lines = [",".join(f"{v:.4f}" for v in row) + f",{label}"
                 for row, label in zip(x, y)]
        path = tmp_path / "mine.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["run", "--csv", str(path), "--model", "lr",
                     "--batches", "5", "--batch-size", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mine" in out
        assert "G_acc" in out


class TestProfile:
    """``run --profile``: the learner's spans, one row per span name."""

    ARGS = ["run", "--dataset", "electricity", "--model", "mlp",
            "--batches", "12", "--batch-size", "64", "--profile"]

    @pytest.fixture(autouse=True)
    def cold_plan_cache(self):
        # Plans are shared per thread; start cold so this run captures.
        clear_plans()
        yield
        clear_plans()

    def test_table_has_a_row_per_span(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        table = out.split("hot path (per span")[1].splitlines()[2:]
        rows = {line.split()[0]: line.split() for line in table}
        for name in STAGE_SPANS:
            assert rows[name][1] == "12", name
        assert {"learner.predict", "learner.update", "plan.capture",
                "plan.replay"} <= set(rows)

    def test_json_shares_are_of_the_root_spans(self, capsys):
        assert main([*self.ARGS, "--json", "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hot_path = payload["hot_path"]
        for name in STAGE_SPANS:
            assert hot_path[name]["count"] == 12, name
        plan_cache = {series["labels"]["event"]: series["value"] for series
                      in payload["metrics"]["freeway_plan_cache"]["series"]}
        for event in ("capture", "replay"):
            assert hot_path[f"plan.{event}"]["count"] == plan_cache[event] > 0
        roots = (hot_path["learner.predict"]["total"]
                 + hot_path["learner.update"]["total"])
        for stats in hot_path.values():
            assert stats["share"] == pytest.approx(stats["total"] / roots)
        assert sum(hot_path[name]["share"] for name in STAGE_SPANS) <= 1.0
