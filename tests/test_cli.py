"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro import api
from repro.core import registry
from repro.cli import (
    build_report_parser,
    build_run_parser,
    build_stream_parser,
    build_sweep_parser,
    experiment_spec_from_args,
    main,
    run_spec,
    run_stream,
)


class TestParser:
    def test_defaults(self):
        spec = experiment_spec_from_args(build_run_parser(flat=True).parse_args([]))
        assert spec.data.name == "mnist"
        assert spec.pipeline.algorithm == "jl-fss-jl"
        assert spec.pipeline.k == 2
        assert spec.runs == 1

    def test_all_algorithms_accepted(self):
        parser = build_run_parser(flat=True)
        for name in registry.registered_names():
            args = parser.parse_args(["--algorithm", name])
            assert args.algorithm == name

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_run_parser(flat=True).parse_args(["--algorithm", "quantum"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_run_parser(flat=True).parse_args(["--dataset", "imagenet"])


class TestRun:
    def test_single_source_run(self, capsys):
        args = build_run_parser(flat=True).parse_args([
            "--dataset", "mnist", "--n", "300", "--d", "64",
            "--algorithm", "jl-fss", "--coreset-size", "60", "--runs", "1",
            "--seed", "3",
        ])
        row = run_spec(args)
        captured = capsys.readouterr().out
        assert "normalized k-means cost" in captured
        assert row["normalized_cost"] > 0
        assert 0 < row["normalized_communication"] < 1

    def test_multi_source_run(self, capsys):
        args = build_run_parser(flat=True).parse_args([
            "--dataset", "neurips", "--n", "240", "--d", "120",
            "--algorithm", "bklw", "--sources", "3", "--total-samples", "40",
            "--pca-rank", "5", "--runs", "1", "--seed", "4",
        ])
        row = run_spec(args)
        assert row["normalized_cost"] > 0
        assert "normalized communication" in capsys.readouterr().out

    def test_quantized_run(self):
        args = build_run_parser(flat=True).parse_args([
            "--dataset", "mnist", "--n", "300", "--d", "64",
            "--algorithm", "jl-fss-jl", "--coreset-size", "60",
            "--quantize-bits", "8", "--seed", "5",
        ])
        row = run_spec(args)
        assert row["normalized_communication"] < 1

    def test_main_returns_zero(self):
        assert main([
            "--dataset", "mnist", "--n", "200", "--d", "49",
            "--algorithm", "nr", "--runs", "1", "--seed", "6",
        ]) == 0


class TestStreamSubcommand:
    def test_defaults(self):
        spec = experiment_spec_from_args(build_stream_parser().parse_args([]), "stream")
        assert spec.pipeline.algorithm == "stream-fss"
        assert spec.pipeline.batch_size == 512
        assert spec.pipeline.window is None
        assert spec.pipeline.query_every is None

    def test_only_streaming_algorithms_accepted(self):
        parser = build_stream_parser()
        assert parser.parse_args(["--algorithm", "stream-jl-ss"]).algorithm == "stream-jl-ss"
        with pytest.raises(SystemExit):
            parser.parse_args(["--algorithm", "jl-fss"])

    def test_stream_run_reports_queries(self, capsys):
        args = build_stream_parser().parse_args([
            "--dataset", "mnist", "--n", "600", "--d", "64",
            "--algorithm", "stream-fss", "--coreset-size", "40",
            "--batch-size", "100", "--query-every", "2", "--sources", "2",
            "--seed", "7",
        ])
        row = run_stream(args)
        captured = capsys.readouterr().out
        assert "norm. cost" in captured
        assert row["normalized_cost"] > 0
        assert row["queries"] >= 2
        assert row["max_live_buckets"] >= 1

    def test_windowed_stream_run(self):
        args = build_stream_parser().parse_args([
            "--dataset", "mnist", "--n", "600", "--d", "36",
            "--algorithm", "stream-uniform-qt", "--coreset-size", "30",
            "--batch-size", "100", "--window", "2", "--sources", "2",
            "--seed", "8",
        ])
        row = run_stream(args)
        assert row["normalized_communication"] > 0

    def test_main_dispatches_stream(self):
        assert main([
            "stream", "--dataset", "mnist", "--n", "400", "--d", "25",
            "--algorithm", "stream-jl-ss", "--coreset-size", "30",
            "--jl-dimension", "10", "--batch-size", "100", "--seed", "9",
        ]) == 0


# ---------------------------------------------------------------------------
# The spec adapter and the rebuilt run/sweep/report subcommands.
# ---------------------------------------------------------------------------

SPEC_TOML = """\
runs = 1
seed = 3

[pipeline]
algorithm = "jl-fss"
k = 2
coreset_size = 60

[data]
name = "mnist"
n = 300
d = 64
"""

SWEEP_TOML = """\
[base]
runs = 1
seed = 3

[base.pipeline]
algorithm = "jl-fss"
k = 2
coreset_size = 60

[base.data]
name = "mnist"
n = 200
d = 30

[axes]
quantize_bits = [8, 12]
"""

STREAM_SPEC_TOML = """\
seed = 2
num_sources = 4

[pipeline]
algorithm = "stream-fss"
k = 2
coreset_size = 20
batch_size = 50

[data]
name = "mnist"
n = 200
d = 10
"""


class TestSpecAdapter:
    def test_flat_flags_build_a_valid_spec(self):
        args = build_run_parser(flat=True).parse_args([
            "--algorithm", "jl-fss", "--n", "300", "--d", "64",
            "--coreset-size", "60", "--runs", "2", "--seed", "3",
        ])
        spec = experiment_spec_from_args(args)
        assert spec.pipeline.algorithm == "jl-fss"
        assert spec.pipeline.coreset_size == 60
        # The flat form always carries both kinds' defaults; the adapter
        # drops the foreign one (total_samples for a single-source kind).
        assert spec.pipeline.total_samples is None
        assert spec.num_sources is None
        assert spec.runs == 2 and spec.seed == 3

    def test_multi_source_flags_set_num_sources(self):
        args = build_run_parser(flat=True).parse_args([
            "--algorithm", "bklw", "--sources", "4", "--total-samples", "50",
        ])
        spec = experiment_spec_from_args(args)
        assert spec.num_sources == 4
        assert spec.pipeline.total_samples == 50
        assert spec.pipeline.coreset_size is None

    def test_network_flags_reach_the_spec(self):
        args = build_run_parser(flat=True).parse_args([
            "--algorithm", "bklw", "--net-preset", "lossy", "--loss", "0.1",
            "--dropout", "2:1",
        ])
        spec = experiment_spec_from_args(args)
        assert spec.network.preset == "lossy"
        assert spec.network.loss == pytest.approx(0.1)
        assert spec.network.dropout == ("2:1",)

    def test_bad_dropout_is_a_system_exit(self):
        args = build_run_parser(flat=True).parse_args([
            "--algorithm", "bklw", "--dropout", "banana",
        ])
        with pytest.raises(SystemExit):
            experiment_spec_from_args(args)


class TestRunSubcommand:
    def test_spec_file_run(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(SPEC_TOML)
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "normalized k-means cost" in out
        assert "algorithm: jl-fss" in out

    def test_spec_file_with_flag_overrides_and_store(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(SPEC_TOML)
        store_path = tmp_path / "results" / "run.jsonl"
        assert main(["run", str(spec_path), "--runs", "2",
                     "--store", str(store_path)]) == 0
        records = api.ResultStore(store_path).load()
        assert len(records) == 1
        assert records[0].spec["runs"] == 2          # the override won
        assert len(records[0].evaluations) == 2
        assert "stored run record" in capsys.readouterr().out

    def test_flags_only_run(self, capsys):
        assert main(["run", "--algorithm", "uniform", "--n", "200",
                     "--d", "40", "--coreset-size", "50", "--seed", "1"]) == 0
        assert "algorithm: uniform" in capsys.readouterr().out

    def test_json_spec_run(self, tmp_path):
        spec = api.ExperimentSpec(
            pipeline=api.PipelineConfig(algorithm="uniform", k=2,
                                        coreset_size=40),
            data=api.DataSpec(name="mnist", n=200, d=30),
            seed=2,
        )
        path = api.dump_spec(spec, tmp_path / "spec.json")
        assert main(["run", str(path)]) == 0

    def test_sweep_file_redirected(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(SWEEP_TOML)
        with pytest.raises(SystemExit, match="repro sweep"):
            main(["run", str(path)])

    def test_spec_file_fan_in_implies_tree(self, tmp_path):
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(STREAM_SPEC_TOML)
        store_path = tmp_path / "run.jsonl"
        assert main(["run", str(spec_path), "--fan-in", "2",
                     "--store", str(store_path)]) == 0
        (record,) = api.ResultStore(store_path).load()
        assert record.spec["topology"] == {"kind": "tree", "fan_in": 2}

    def test_typed_sources_reach_the_spec_on_every_path(self, tmp_path):
        # One rule for both paths: a typed flag is never dropped, so a
        # --sources typed on a single-source algorithm is stored (and the
        # single-source run ignores it) whether or not a spec file is given.
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(SPEC_TOML)
        flags_store, file_store = tmp_path / "flags.jsonl", tmp_path / "file.jsonl"
        assert main(["run", "--algorithm", "jl-fss", "--sources", "4",
                     "--n", "200", "--d", "30", "--store", str(flags_store)]) == 0
        assert main(["run", str(spec_path), "--sources", "4",
                     "--store", str(file_store)]) == 0
        for store_path in (flags_store, file_store):
            (record,) = api.ResultStore(store_path).load()
            assert record.spec["num_sources"] == 4

    def test_run_parser_suppresses_defaults(self):
        args = build_run_parser().parse_args(["spec.toml"])
        assert not hasattr(args, "k")
        assert not hasattr(args, "runs")


class TestSweepSubcommand:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(SWEEP_TOML)
        store_path = tmp_path / "results" / "sweep.jsonl"
        assert main(["sweep", str(spec_path),
                     "--store", str(store_path),
                     "--cache-dir", str(tmp_path / "stage_cache")]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "quantize_bits=8" in out and "quantize_bits=12" in out
        assert "stage cache" in out and "miss(es)" in out
        records = api.ResultStore(store_path).load()
        assert len(records) == 2
        assert records[0].run_seeds == records[1].run_seeds  # paired seeds
        # Cache accounting lives in the journal (not the records, which
        # must stay identical between cold and resumed runs).
        journal = api.SweepJournal.for_store(store_path)
        done = [e for e in journal.entries() if e["event"] == "done"]
        assert len(done) == 2
        assert sum(e["cache"]["misses"] for e in done) > 0

    def test_plain_spec_runs_as_one_cell(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(SPEC_TOML)
        assert main(["sweep", str(spec_path), "--store", "", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "1 cell(s)" in out
        assert "stage cache" not in out  # --no-cache runs (and prints) none

    def test_warm_rerun_hits_the_cache(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(SWEEP_TOML)
        cache_dir = str(tmp_path / "stage_cache")
        assert main(["sweep", str(spec_path), "--store", "",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["sweep", str(spec_path), "--store", "",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 miss(es)" in out
        assert "100% hit rate" in out
        assert "2/2 cell(s) reused cached stages" in out

    def test_sweep_parser_defaults(self):
        args = build_sweep_parser().parse_args(["sweep.toml"])
        assert args.store == "results/sweep.jsonl"
        assert args.jobs is None
        assert args.cache is True
        assert args.cache_dir == "results/stage_cache"


class TestCacheSubcommand:
    def _prime(self, tmp_path):
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(SWEEP_TOML)
        cache_dir = tmp_path / "stage_cache"
        main(["sweep", str(spec_path), "--store", "",
              "--cache-dir", str(cache_dir)])
        return cache_dir

    def test_cache_stats(self, tmp_path, capsys):
        cache_dir = self._prime(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "stage cache" in out and "entries" in out

    def test_cache_gc_to_budget_and_clear(self, tmp_path, capsys):
        cache_dir = self._prime(tmp_path)
        before = len(list(cache_dir.glob("*.npz")))
        assert before > 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(cache_dir),
                     "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert len(list(cache_dir.glob("*.npz"))) < before
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.glob("*.npz")) == []

    def test_cache_gc_rejects_negative_budget(self, tmp_path):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "gc", "--cache-dir", str(tmp_path),
                  "--max-bytes", "-5"])

    def test_cache_stats_on_missing_directory(self, tmp_path, capsys):
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestReportSubcommand:
    @pytest.fixture()
    def store_path(self, tmp_path):
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(SWEEP_TOML)
        store_path = tmp_path / "sweep.jsonl"
        main(["sweep", str(spec_path), "--store", str(store_path),
              "--cache-dir", str(tmp_path / "stage_cache")])
        return store_path

    def test_report_table(self, store_path, capsys):
        capsys.readouterr()
        assert main(["report", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "mean_normalized_cost" in out
        assert "quantize_bits=8" in out

    def test_report_cdf(self, store_path, capsys):
        capsys.readouterr()
        assert main(["report", str(store_path),
                     "--cdf", "normalized_cost"]) == 0
        out = capsys.readouterr().out
        assert "empirical CDF" in out
        assert "@1.00" in out

    def test_report_missing_store(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.jsonl")]) == 0
        assert "no records" in capsys.readouterr().out

    def test_report_unknown_cdf_metric(self, store_path):
        with pytest.raises(SystemExit, match="normalized_cost"):
            main(["report", str(store_path), "--cdf", "bogus_metric"])

    def test_report_parser_defaults(self):
        args = build_report_parser().parse_args(["store.jsonl"])
        assert args.cdf is None
        assert "mean_normalized_cost" in args.metrics


class TestCleanCliErrors:
    """User input mistakes must exit with a one-line message, not a
    traceback (code-review regression tests)."""

    def test_missing_spec_file(self):
        with pytest.raises(SystemExit, match="cannot read spec file"):
            main(["run", "/nonexistent/spec.toml"])

    def test_malformed_spec_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("this is not = [valid toml\n")
        with pytest.raises(SystemExit, match="invalid spec"):
            main(["run", str(path)])

    def test_invalid_spec_values(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"pipeline": {"algorithm": "fss", "k": 0}}
        ))
        with pytest.raises(SystemExit, match="invalid spec"):
            main(["run", str(path)])

    def test_invalid_flag_override_over_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(SPEC_TOML)
        with pytest.raises(SystemExit, match="invalid override"):
            main(["run", str(path), "--loss", "1.5"])

    def test_invalid_flags_only_run(self):
        with pytest.raises(SystemExit, match="invalid experiment flags"):
            main(["run", "--algorithm", "fss", "--k", "0"])

    def test_stream_zero_k(self):
        with pytest.raises(SystemExit, match="k must be a positive integer"):
            main(["stream", "--k", "0", "--n", "200", "--d", "10"])

    def test_stream_fan_in_below_two(self):
        with pytest.raises(SystemExit, match="fan_in must be >= 2"):
            main(["stream", "--fan-in", "1", "--n", "200", "--d", "10"])

    def test_flat_form_zero_k(self):
        with pytest.raises(SystemExit, match="k must be a positive integer"):
            main(["--k", "0", "--n", "200", "--d", "10"])

    def test_client_validates_before_connecting(self):
        # Port 1 has no daemon: the flag error must come first.
        with pytest.raises(SystemExit, match="query_every must be a positive"):
            main(["client", "--port", "1", "--query-every", "0",
                  "--n", "200", "--d", "10"])

    def test_flat_form_rejects_typed_kind_foreign_knob(self):
        with pytest.raises(SystemExit, match="total_samples"):
            main(["--algorithm", "fss", "--total-samples", "99",
                  "--n", "200", "--d", "10"])

    def test_star_with_fan_in_over_spec_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(STREAM_SPEC_TOML)
        with pytest.raises(SystemExit, match="--fan-in applies only to --topology tree"):
            main(["run", str(path), "--topology", "star", "--fan-in", "2"])

    def test_sweep_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read spec file"):
            main(["sweep", "/nonexistent/sweep.toml"])

    def test_typed_kind_foreign_knob_flag_rejected(self):
        # fss is single-source; an explicitly typed --total-samples must
        # raise, not be silently dropped (the original footgun).
        with pytest.raises(SystemExit, match="total_samples"):
            main(["run", "--algorithm", "fss", "--total-samples", "99"])

    def test_report_unknown_metrics_column(self, tmp_path):
        store = api.ResultStore(tmp_path / "store.jsonl")
        store.append(api.RunRecord(
            algorithm="fss", spec={"pipeline": {"algorithm": "fss", "k": 2}},
            summary={"mean_normalized_cost": 1.0},
        ))
        with pytest.raises(SystemExit, match="available"):
            main(["report", str(store.path), "--metrics", "bogus"])

    def test_sweep_cell_expansion_error(self, tmp_path):
        # Loads fine, fails at expansion: algorithm axis sweeps onto a
        # multi-source kind but the base has no num_sources.
        path = tmp_path / "sweep.toml"
        path.write_text(
            "[base.pipeline]\nalgorithm = \"jl-fss\"\nk = 2\n"
            "[base.data]\nname = \"mnist\"\nn = 200\nd = 30\n"
            "[axes]\nalgorithm = [\"bklw\"]\n"
        )
        with pytest.raises(SystemExit, match="invalid sweep"):
            main(["sweep", str(path)])

    def test_cdf_rejects_non_numeric_metric(self, tmp_path):
        store = api.ResultStore(tmp_path / "store.jsonl")
        store.append(api.RunRecord(
            algorithm="fss", spec={"pipeline": {"algorithm": "fss", "k": 2}},
            summary={"mean_normalized_cost": 1.0},
            evaluations=({"algorithm": "FSS", "normalized_cost": 1.0},),
        ))
        with pytest.raises(SystemExit, match="not a numeric per-run metric"):
            main(["report", str(store.path), "--cdf", "algorithm"])

    def test_toml_spec_without_tomllib(self, tmp_path, monkeypatch):
        # On Python < 3.11 load_spec raises RuntimeError for .toml files;
        # the CLI must turn that into a clean exit, not a traceback.
        from repro.api import serialization
        monkeypatch.setattr(serialization, "tomllib", None)
        path = tmp_path / "spec.toml"
        path.write_text(SPEC_TOML)
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["run", str(path)])

    def test_cdf_skips_records_without_evaluations(self, tmp_path, capsys):
        store = api.ResultStore(tmp_path / "store.jsonl")
        store.append(api.RunRecord(
            algorithm="fss", spec={"pipeline": {"algorithm": "fss", "k": 2}},
            summary={"mean_normalized_cost": 1.0,
                     "mean_normalized_communication": 0.1,
                     "mean_source_seconds": 0.0},
        ))
        assert main(["report", str(store.path),
                     "--cdf", "normalized_cost"]) == 0
        assert "no per-run evaluations" in capsys.readouterr().out
