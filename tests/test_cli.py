from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from adagate.cli import main
from adagate.corpus import builtin_fixture_path

DIM = str(2**20)


def _pipeline(tmp_path: Path, budget: str = "140") -> Path:
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    out = tmp_path / "r.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    assert (
        main(
            [
                "run",
                "--data", data,
                "--store", str(store),
                "--namespace", "clean",
                "--mode", "adagate",
                "--L", "1",
                "--budget", budget,
                "--oracle", "rules",
                "--embedder", "hash",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        == 0
    )
    return out


def test_run_end_to_end_on_bundled_fixture(tmp_path, capsys):
    out = _pipeline(tmp_path)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2  # one record per fixture example
    for record in records:
        assert record["schema"] == "result@1"
        assert record["mode"] == "adagate"
        assert record["condition"] == "clean"
        assert record["f1"] == 1.0
        assert record["correct"] is True


def test_run_writes_manifest_with_corpus_hash(tmp_path):
    out = _pipeline(tmp_path)
    manifest_path = Path(str(out) + ".manifest.json")
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "manifest@1"
    assert manifest["namespace"] == "clean"
    assert manifest["seed"] == 0
    assert len(manifest["corpus_sha256"]) == 64
    assert manifest["config"]["mode"] == "adagate"


def test_run_rejects_zero_iterations(tmp_path):
    data = str(builtin_fixture_path())
    code = main(
        [
            "run",
            "--data", data,
            "--store", str(tmp_path / "missing.jsonl"),
            "--mode", "adagate",
            "--L", "0",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--buffer", "-1"],
        ["run", "--k", "0"],
        ["run", "--budget", "0"],
        ["run", "--weights", "1,2,3"],
        ["run", "--weights", "a,b,c,d,e"],
        ["run", "--weights", "0,0,0,0,0"],
        ["perturb", "--kind", "noise", "--rho", "2"],
        ["perturb", "--kind", "redundancy", "--cap", "0"],
        ["index", "--namespace", "clean", "--dim", "0"],
        # Config-file values: the JSON after --config is written to a file.
        ["run", "--mode", "adaptive_k", "--config", '{"adaptive_k": {"pool": 0}}'],
        ["run", "--config", '{"adaptive_k": {"pool": "many"}}'],
        ["run", "--config", '{"controller": {"budget": "lots"}}'],
        ["run", "--config", '{"controller": {"buffer": null}}'],
        ["run", "--config", '{"controller": {"dedup_threshold": "high"}}'],
        ["index", "--namespace", "clean", "--config", '{"index": {"dim": "x"}}'],
        ["index", "--namespace", "clean", "--config", '{"index": {"dim": [256]}}'],
    ],
    ids=" ".join,
)
def test_invalid_value_is_usage_error(tmp_path, capsys, argv):
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    capsys.readouterr()
    if "--config" in argv:
        at = argv.index("--config") + 1
        config = tmp_path / "config.json"
        config.write_text(argv[at], encoding="utf-8")
        argv = argv[:at] + [str(config)] + argv[at + 1 :]
    paths = {
        "run": ["--data", data, "--store", str(tmp_path / "store.jsonl"), "--out", str(tmp_path / "r.jsonl")],
        "perturb": ["--data", data, "--out", str(tmp_path / "p.jsonl")],
        "index": ["--chunks", str(chunks), "--store", str(tmp_path / "store.jsonl")],
    }[argv[0]]
    assert main(argv + paths) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["run", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2


def test_report_empty_results_header_only(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["report", "--in", str(empty)]) == 0
    output = capsys.readouterr().out
    assert output.splitlines()[0].startswith("condition")
    assert len([line for line in output.splitlines() if line.strip()]) == 1


def test_report_refuses_results_without_manifest(tmp_path, capsys):
    out = _pipeline(tmp_path)
    Path(str(out) + ".manifest.json").unlink()
    assert main(["report", "--in", str(out)]) == 1
    assert main(["report", "--in", str(out), "--force"]) == 0
    table = capsys.readouterr().out
    assert "adagate" in table


def test_report_closes_results_files(tmp_path):
    out = _pipeline(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["report", "--in", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_report_renders_aggregates_and_csv(tmp_path, capsys):
    out = _pipeline(tmp_path)
    csv_path = tmp_path / "report.csv"
    assert main(["report", "--in", str(out), "--out", str(csv_path)]) == 0
    table = capsys.readouterr().out
    assert "clean" in table and "adagate" in table
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("condition,mode,n,")
    assert len(lines) == 2


def test_ingest_missing_file_exits_nonzero(tmp_path, capsys):
    code = main(["ingest", "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "o.jsonl")])
    assert code == 1


def test_perturb_subcommand_writes_and_indexes(tmp_path):
    data = str(builtin_fixture_path())
    store = tmp_path / "store.jsonl"
    out_chunks = tmp_path / "noise.jsonl"
    assert (
        main(
            [
                "perturb",
                "--data", data,
                "--kind", "noise",
                "--rho", "0.5",
                "--seed", "3",
                "--out", str(out_chunks),
                "--store", str(store),
                "--namespace", "noise",
                "--dim", DIM,
            ]
        )
        == 0
    )
    lines = out_chunks.read_text().splitlines()
    assert len(lines) == 40
    from adagate.index import VectorIndex

    index = VectorIndex.load(store)
    assert index.size("noise") == 40


def test_jobs_parallel_run_matches_serial(tmp_path):
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    main(["ingest", "--data", data, "--out", str(chunks)])
    main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM])
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = [
        "run", "--data", data, "--store", str(store), "--namespace", "clean",
        "--mode", "adagate", "--L", "1", "--budget", "140", "--out",
    ]
    assert main(base + [str(serial)]) == 0
    assert main(base[:-1] + ["--jobs", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_judging_error_becomes_error_record_not_lost_batch(tmp_path, monkeypatch, capsys):
    from adagate import cli
    from adagate.errors import TransportError
    from adagate.oracle import RuleBasedOracle

    class FailingJudge(RuleBasedOracle):
        def judge_answer(self, question, gold, predicted):
            raise TransportError("judge endpoint unreachable", retriable=True, attempts=3)

    monkeypatch.setattr(cli, "_make_oracle", lambda kind, config, log_path: FailingJudge())
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    out = tmp_path / "r.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    code = main(["run", "--data", data, "--store", str(store), "--namespace", "clean", "--out", str(out)])
    assert code == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    assert all("judge endpoint unreachable" in r["error"] for r in records)
    assert "2 examples failed" in capsys.readouterr().err


def test_importing_cli_does_not_import_requests():
    import os
    import subprocess
    import sys

    import adagate

    src = str(Path(adagate.__file__).resolve().parents[1])
    code = "import sys, adagate.cli; sys.exit('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0


@pytest.mark.parametrize("remote", [False, True], ids=["hash", "remote"])
@pytest.mark.parametrize(
    "header",
    [
        "not json",
        '{"schema": "index@1"}',
        '{"schema": "index@1", "dim": "x", "embedder": "hash"}',
        '{"schema": "index@1", "dim": 0, "embedder": "hash"}',
        '[{"schema": "index@1", "dim": 256}]',
    ],
)
def test_bad_snapshot_header_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys, header, remote):
    from adagate import index

    requests_sent = []
    monkeypatch.setattr(index, "post_json", lambda *args, **kwargs: requests_sent.append(args))
    store = tmp_path / "store.jsonl"
    store.write_text(header + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"index": {"remote": {"url": "http://embed.invalid"}}}), encoding="utf-8")
    argv = ["run", "--data", str(builtin_fixture_path()), "--store", str(store), "--out", str(tmp_path / "r.jsonl")]
    if remote:
        argv += ["--embedder", "remote", "--config", str(config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not requests_sent
    assert not (tmp_path / "r.jsonl").exists()
