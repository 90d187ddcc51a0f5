"""Tests for the command-line interface."""

import importlib
import json

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ReproError

SMALL = [
    "--scale", "0.03",
    "--train-queries", "60",
    "--test-queries", "10",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.k == 3
        assert args.certainty == 0.8

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "15"])
        assert args.artifact == "15"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "99"])

    @pytest.mark.parametrize(
        "command",
        ["bench-serve", "bench-train", "bench-gateway", "bench-cluster"],
    )
    def test_retired_command_is_an_invalid_choice(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--scale", "0.5", "--seed", "7", "demo"]
        )
        assert args.scale == 0.5
        assert args.seed == 7


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(SMALL + ["demo", "--k", "1", "--certainty", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Selected" in out
        assert "Certainty" in out

    def test_fig15_runs(self, capsys):
        code = main(SMALL + ["fig", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Avg(Cor_a)" in out

    def test_fig17_runs(self, capsys):
        code = main(SMALL + ["fig", "17"])
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_train_saves_state(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        code = main(SMALL + ["train", str(target)])
        assert code == 0
        assert target.exists()
        from repro.persistence import load_trained_state

        state = load_trained_state(target)
        assert len(state.summaries) == 20

    def test_train_parser_flags(self):
        args = build_parser().parse_args(["train", "out.json"])
        assert args.workers == 1
        assert args.checkpoint is None
        assert not args.resume
        assert args.checkpoint_every == 25
        args = build_parser().parse_args(
            [
                "train", "out.json",
                "--workers", "4",
                "--checkpoint", "ck.json",
                "--resume",
                "--checkpoint-every", "10",
            ]
        )
        assert args.workers == 4
        assert args.checkpoint == "ck.json"
        assert args.resume
        assert args.checkpoint_every == 10

    def test_train_parallel_with_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        checkpoint = tmp_path / "checkpoint.json"
        code = main(
            SMALL
            + [
                "train", str(target),
                "--workers", "2",
                "--checkpoint", str(checkpoint),
                "--checkpoint-every", "20",
            ]
        )
        assert code == 0
        assert target.exists()
        from repro.persistence import load_training_checkpoint

        # The final checkpoint covers the whole training stream.
        assert load_training_checkpoint(checkpoint).queries_done == 60
        assert "parallel, 2 workers" in capsys.readouterr().out



class TestClusterCommand:
    """The replica count resolves before any replica process starts."""

    @pytest.fixture()
    def started(self, monkeypatch):
        # Stands in for LocalCluster: records the count it was given and
        # ends the command there, so no test here spawns a process.
        counts = []

        def refuse(replicas, **kwargs):
            counts.append(replicas)
            raise ReproError("not started")

        monkeypatch.setattr("repro.cluster.LocalCluster", refuse)
        return counts

    @pytest.mark.parametrize(
        ("env", "argv", "replicas"),
        [(None, [], 2), ("3", [], 3), ("3", ["--replicas", "1"], 1)],
    )
    def test_replica_count(self, monkeypatch, started, env, argv, replicas):
        if env is None:
            monkeypatch.delenv("REPRO_CLUSTER_REPLICAS", raising=False)
        else:
            monkeypatch.setenv("REPRO_CLUSTER_REPLICAS", env)
        assert main(["cluster", *argv]) == 2
        assert started == [replicas]

    def test_malformed_replica_knob_is_a_clean_error(
        self, monkeypatch, started, capsys
    ):
        monkeypatch.setenv("REPRO_CLUSTER_REPLICAS", "abc")
        assert main(["cluster"]) == 2
        assert (
            "error: REPRO_CLUSTER_REPLICAS must be an integer, got 'abc'"
            in capsys.readouterr().err
        )
        assert started == []

class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.queries is None
        assert args.workers == 8
        assert args.batch == 4

    def test_demo_batch_flag(self):
        args = build_parser().parse_args(["demo", "--batch", "4"])
        assert args.batch == 4

    def test_invalid_config_is_a_clean_error(self, capsys):
        code = main(["bench-scale", "--queries", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_removed_topm_prune_mode_is_a_clean_error(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PREFILTER", "topm")
        code = main([*SMALL, "demo", "--query", "heart disease"])
        assert code == 2
        assert (
            "error: REPRO_PREFILTER='topm' is not a valid prune mode"
            in capsys.readouterr().err
        )

    def test_serve_runs(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "breast cancer treatment\nheart disease\nbreast cancer treatment\n"
        )
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "serve",
                str(queries),
                "--k",
                "1",
                "--certainty",
                "0.5",
                "--workers",
                "2",
                "--batch",
                "2",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "(cache)" in out  # repeated query served from cache
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["queries_served"] == 3
        assert snapshot["cache"]["hits"] == 1

    def test_serve_empty_stream_errors(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("\n")
        assert main(SMALL + ["serve", str(queries)]) == 1

    def test_missing_query_file_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "q.txt"
        assert main(SMALL + ["serve", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(missing) in captured.err
        assert "Training" not in captured.out

    def test_unwritable_report_path_is_a_clean_error(self, tmp_path, capsys):
        # Every output path is checked before the command runs: no
        # testbed, training or report table precedes the error.
        out = str(tmp_path / "missing" / "x.json")
        state = str(tmp_path / "state.json")
        for argv in (
            ["train", out],
            ["train", state, "--checkpoint", out],
            ["bench-index", "--dir", str(tmp_path), "--out", out],
            ["bench-scale", "--out", out],
            ["serve", "--metrics-out", out],
        ):
            assert main(SMALL + argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and out in captured.err
            assert captured.out == "", argv

    @pytest.mark.parametrize(
        ("command", "runner", "gate"),
        [
            (
                [
                    "bench-scale", "--sizes", "34,36", "--queries", "1",
                    "--repeats", "1", "--train-queries", "20",
                ],
                "repro.experiments.bench_scale.run_bench_scale",
                "34db.exact.identical_selections",
            ),
            (
                SMALL + ["bench-drift", "--queries-per-phase", "8"],
                "repro.adapt.bench.run_bench_drift",
                "frozen.model_changed",
            ),
        ],
        ids=["bench-scale", "bench-drift"],
    )
    def test_identity_mismatch_exits_3(
        self, monkeypatch, tmp_path, capsys, command, runner, gate
    ):
        # A real run whose identity verdict is then flipped: the command
        # must exit 3 and name that gate on stderr. Runs this small may
        # also miss a speed or recovery gate; the stderr line pins the
        # flipped one.
        module_name, _, name = runner.rpartition(".")
        module = importlib.import_module(module_name)
        measure = getattr(module, name)

        def mismatched(config):
            document = measure(config)
            assert _verdict(document, gate) is True
            _MISMATCH[gate](document)
            assert _verdict(document, gate) is False
            return document

        monkeypatch.setattr(module, name, mismatched)
        out = str(tmp_path / "report.json")
        assert main(command + ["--out", out]) == 3
        assert f"gate {gate} failed" in capsys.readouterr().err


def _verdict(document, gate):
    (entry,) = [g for g in document["gates"] if g["name"] == gate]
    return entry["meets_target"]


def _mismatched_selections(document):
    """bench-scale: exact mode picks other databases at the first size."""
    from repro.experiments.bench_scale import scale_gates

    document["results"]["sizes"][0]["identical_selections"] = False
    document["gates"] = scale_gates(document["results"], document["config"])


def _changed_frozen_model(document):
    """bench-drift: the frozen leg's model no longer matches its start."""
    from repro.adapt.bench import drift_gates

    fingerprints = document["results"]["runs"]["frozen"]["fingerprints"]
    fingerprints["final"] = fingerprints["initial"] + "-changed"
    document["gates"] = drift_gates(document["results"])


_MISMATCH = {
    "34db.exact.identical_selections": _mismatched_selections,
    "frozen.model_changed": _changed_frozen_model,
}
