"""Tests for the command-line interface."""

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
        code = main(["bench-serve", "--queries", "0"])
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

    def test_bench_serve_parser_defaults(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.command == "bench-serve"
        assert args.workers == 16
        assert args.batch == 16
        assert args.latency_ms == 50.0

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
        import json

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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_unwritable_report_path_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["bench-index", "--dir", str(tmp_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_bench_train_parser_defaults(self):
        args = build_parser().parse_args(["bench-train"])
        assert args.command == "bench-train"
        assert args.workers == 8
        assert args.queries == 40
        assert args.samples_per_type == 20
        assert args.latency_ms == 20.0

    def test_bench_train_runs(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "bench-train",
                "--queries", "6",
                "--workers", "4",
                "--samples-per-type", "2",
                "--latency-ms", "1",
                "--timeout-ms", "60",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical state      : True" in out
        assert "speedup" in out
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert "training_queries" in snapshot["counters"]

    def test_bench_serve_runs(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "bench-serve",
                "--queries",
                "8",
                "--unique",
                "5",
                "--latency-ms",
                "2",
                "--timeout-ms",
                "60",
                "--workers",
                "4",
                "--batch",
                "2",
                "--error-rate",
                "0",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical selections : True" in out
        assert "speedup" in out
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert "probes_issued" in snapshot["counters"]

    @pytest.mark.parametrize(
        ("command", "runner", "gates", "key"),
        [
            (
                [
                    "bench-train", "--queries", "6", "--workers", "2",
                    "--samples-per-type", "2", "--latency-ms", "1",
                    "--timeout-ms", "60",
                ],
                "run_bench_train",
                "train_gates",
                "identical_state",
            ),
            (
                [
                    "bench-serve", "--queries", "4", "--unique", "3",
                    "--latency-ms", "1", "--timeout-ms", "60",
                    "--workers", "2", "--batch", "2", "--error-rate", "0",
                ],
                "run_bench_serve",
                "serve_gates",
                "identical_selections",
            ),
        ],
        ids=["bench-train", "bench-serve"],
    )
    def test_identity_mismatch_exits_3(
        self, monkeypatch, capsys, command, runner, gates, key
    ):
        from repro.service import bench as service_bench

        measure = getattr(service_bench, runner)

        def mismatched(config):
            document = measure(config)
            document["results"][key] = False
            document["gates"] = getattr(service_bench, gates)(
                document["results"]
            )
            return document

        monkeypatch.setattr(service_bench, runner, mismatched)
        assert main(SMALL + command) == 3
        assert f"gate {key} failed" in capsys.readouterr().err
