from __future__ import annotations

import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from adagate.cli import main
from adagate.corpus import read_chunks
from adagate.index import SNAPSHOT_SCHEMA

from helpers import builtin_fixture_path

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
    assert "seed" not in manifest and "seed" not in manifest["config"]
    assert len(manifest["corpus_sha256"]) == 64
    assert manifest["config"]["mode"] == "adagate"


def test_run_manifest_records_the_resolved_settings_and_the_store(tmp_path):
    data = str(builtin_fixture_path())
    chunks, store, out = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "r.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", "256"]) == 0
    assert main(["run", "--data", data, "--store", str(store), "--budget", "200", "--out", str(out)]) == 0
    recorded = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))["config"]
    expected = {
        "budget": 200, "buffer": 2, "k": 3, "max_iterations": 1,
        "mode": "adagate", "namespace": "clean", "store_dim": 256, "store_embedder": "hash",
    }
    assert {key: recorded.get(key) for key in expected} == expected
    assert len(recorded["weights"]) == 5


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
        ["run", "--weights", "nan,0.15,0.15,0.25,0.15"],
        ["run", "--weights", "inf,0.15,0.15,0.25,0.15"],
        ["run", "--weights", "0.3,0.15,0.15,0.25,1e309"],  # overflows float() to inf
        ["run", "--jobs", "0"],
        ["run", "--limit", "0"],
        ["ingest", "--limit", "0"],
        ["ingest", "--limit", "-1"],
        ["perturb", "--kind", "noise", "--rho", "2"],
        ["index", "--namespace", "clean", "--dim", "0"],
        ["index", "--namespace", "clean", "--dim", "4294967297"],  # 2**32 + 1: a coordinate outgrows a uint32
        ["index", "--namespace", "clean", "--embedder", "remote", "--dim", "0",
         "--config", '{"index": {"remote": {"url": "http://embed.invalid"}}}'],
        # A new remote store has no default dim: the service decides it.
        ["index", "--namespace", "clean", "--embedder", "remote",
         "--config", '{"index": {"remote": {"url": "http://embed.invalid"}}}'],
        # Config-file keys that settings which are flags once had: the JSON after --config is written to a file.
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
def test_invalid_value_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    from adagate import index

    requests_sent = []
    monkeypatch.setattr(index, "post_json", lambda *args, **kwargs: requests_sent.append(args))
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
        "ingest": ["--data", data, "--out", str(tmp_path / "r.jsonl")],
        "run": ["--data", data, "--store", str(tmp_path / "store.jsonl"), "--out", str(tmp_path / "r.jsonl")],
        "perturb": ["--data", data, "--out", str(tmp_path / "p.jsonl")],
        "index": ["--chunks", str(chunks), "--store", str(tmp_path / "store.jsonl")],
    }[argv[0]]
    assert main(argv + paths) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not requests_sent
    assert not (tmp_path / "r.jsonl").exists()
    assert not (tmp_path / "store.jsonl").exists()


@pytest.mark.parametrize("command", ["index", "perturb"])
def test_a_new_store_without_dim_is_a_2_pow_20_store(tmp_path, command):
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    argv = {
        "index": ["index", "--chunks", str(chunks), "--namespace", "clean"],
        "perturb": ["perturb", "--data", data, "--kind", "noise", "--out", str(tmp_path / "noise.jsonl")],
    }[command]
    default, explicit = tmp_path / "default.jsonl", tmp_path / "explicit.jsonl"
    assert main(argv + ["--store", str(default)]) == 0
    assert main(argv + ["--store", str(explicit), "--dim", DIM]) == 0
    assert json.loads(default.read_text(encoding="utf-8").splitlines()[0])["dim"] == 2**20
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run", "--store", "MISSING"], 1, "error: store MISSING does not exist"),
        (["index", "--store", "STORE", "--dim", "512"], 2, "--dim 512 does not match the dim 256 of store STORE"),
        (["perturb", "--store", "STORE", "--dim", "512"], 2, "--dim 512 does not match the dim 256 of store STORE"),
        (["index", "--store", "STORE", "--embedder", "remote"], 2,
         "--embedder remote does not match the embedder hash of store STORE"),
        (["run", "--store", "STORE", "--embedder", "remote"], 2,
         "--embedder remote does not match the embedder hash of store STORE"),
    ],
    ids=["run-missing-store", "index-other-dim", "perturb-other-dim", "index-other-embedder", "run-other-embedder"],
)
def test_store_and_backend_mistakes_are_reported(tmp_path, capsys, argv, code, message):
    data = str(builtin_fixture_path())
    chunks, store, missing = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "missing.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", "256"]) == 0
    snapshot = store.read_bytes()
    capsys.readouterr()
    names = {"MISSING": str(missing), "STORE": str(store)}
    rest = {
        "run": ["--data", data, "--out", str(tmp_path / "r.jsonl")],
        "index": ["--chunks", str(chunks), "--namespace", "clean"],
        "perturb": ["--data", data, "--kind", "noise", "--out", str(tmp_path / "p.jsonl")],
    }[argv[0]]
    assert main([names.get(arg, arg) for arg in argv] + rest) == code
    err = capsys.readouterr().err
    for name, path in names.items():
        message = message.replace(name, path)
    assert message in err
    assert "Traceback" not in err
    assert store.read_bytes() == snapshot
    assert not missing.exists()
    assert not list(tmp_path.glob("r.jsonl*"))
    assert not list(tmp_path.glob("p.jsonl*"))  # perturb checks the store before it writes --out


@pytest.mark.parametrize(
    "config, message",
    [
        ({"controller": {"budgt": 10}}, "--config holds unknown key 'controller'"),
        ({"oracle": {"urll": "http://svc/v1"}}, "--config holds unknown key 'oracle.urll'"),
        ({"index": {"remote": {"url": 5}}}, "--config index.remote.url must be a string, not 5"),
        ({"index": {"remote": "http://svc/v1"}}, '--config index.remote must be an object, not "http://svc/v1"'),
        ({"oracle": {"key_env": None}}, "--config oracle.key_env must be a string, not null"),
    ],
    ids=["removed-section", "misspelled-key", "url-not-string", "section-not-object", "null-value"],
)
def test_config_file_is_checked_strictly(tmp_path, monkeypatch, capsys, config, message):
    from adagate import index

    requests_sent = []
    monkeypatch.setattr(index, "post_json", lambda *args, **kwargs: requests_sent.append(args))
    chunks, store, path = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "config.json"
    assert main(["ingest", "--data", str(builtin_fixture_path()), "--out", str(chunks)]) == 0
    path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    argv = ["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--embedder", "remote"]
    assert main(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not requests_sent
    assert not store.exists()


def test_a_non_finite_embedding_component_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys):
    from adagate import index

    def nan_embeddings(session, url, payload, **kwargs):
        return {"data": [{"embedding": [float("nan"), 1.0, 0.0, 0.0]} for _ in payload["input"]]}

    monkeypatch.setattr(index, "post_json", nan_embeddings)
    chunks, store, config = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "config.json"
    assert main(["ingest", "--data", str(builtin_fixture_path()), "--out", str(chunks)]) == 0
    config.write_text(json.dumps({"index": {"remote": {"url": "http://embed.invalid"}}}), encoding="utf-8")
    capsys.readouterr()
    argv = ["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean"]
    assert main(argv + ["--embedder", "remote", "--dim", "4", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not store.exists()


def _fake_embeddings(session, url, payload, **kwargs):
    """An embeddings response whose 4-dim vectors depend on each input's length."""
    return {"data": [{"embedding": [1.0, len(text) % 7, len(text) % 3, 0.5]} for text in payload["input"]]}


def test_perturb_into_a_remote_store_follows_the_store(tmp_path, monkeypatch):
    from adagate import index

    monkeypatch.setattr(index, "post_json", _fake_embeddings)
    data = str(builtin_fixture_path())
    chunks, store, config = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({"index": {"remote": {"url": "http://embed.invalid"}}}), encoding="utf-8")
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    build = ["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", "4"]
    assert main(build + ["--embedder", "remote", "--config", str(config)]) == 0
    perturb = ["perturb", "--data", data, "--kind", "noise", "--out", str(tmp_path / "noise.jsonl")]
    assert main(perturb + ["--store", str(store), "--config", str(config)]) == 0
    assert json.loads(store.read_text(encoding="utf-8").splitlines()[0])["embedder"] == "remote"
    embedder = index.RemoteEmbedder(url="http://embed.invalid", dim=4, session=object())
    assert index.VectorIndex.load(store, embedder_for=lambda backend, dim: embedder).namespaces() == ["clean", "noise"]


class _EmbeddingsHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``_fake_embeddings``; the server keeps every (path, inputs) it was sent."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, payload["input"]))
        body = json.dumps(_fake_embeddings(None, self.path, payload)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # no request lines on stderr
        pass


@pytest.fixture
def embeddings_service(monkeypatch):
    """An embeddings service on a loopback port, reached without any proxy."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbeddingsHandler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_run_over_a_remote_store_through_a_loopback_service(tmp_path, embeddings_service):
    data = str(builtin_fixture_path())
    chunks, store, config = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "config.json"
    url = f"http://127.0.0.1:{embeddings_service.server_address[1]}/v1"
    config.write_text(json.dumps({"index": {"remote": {"url": url}}}), encoding="utf-8")
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    build = ["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", "4"]
    assert main(build + ["--embedder", "remote", "--config", str(config)]) == 0
    chunk_texts = {chunk.text for chunk in read_chunks(chunks)}
    assert {text for _, inputs in embeddings_service.requests for text in inputs} == chunk_texts
    embeddings_service.requests.clear()
    out = tmp_path / "r.jsonl"
    run = ["run", "--data", data, "--store", str(store), "--embedder", "remote", "--config", str(config)]
    assert main(run + ["--out", str(out)]) == 0
    recorded = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))["config"]
    assert (recorded["store_embedder"], recorded["store_dim"]) == ("remote", 4)
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2
    sent = [text for _, inputs in embeddings_service.requests for text in inputs]
    assert sent and not chunk_texts & set(sent)  # only query strings: the store holds the chunk vectors
    assert {path for path, _ in embeddings_service.requests} == {"/v1/embeddings"}


def test_store_flags_are_checked_before_any_record_is_decoded(tmp_path, capsys):
    data = str(builtin_fixture_path())
    chunks, store = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    index = ["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean"]
    assert main(index + ["--dim", "256"]) == 0
    lines = store.read_text(encoding="utf-8").splitlines()
    store.write_text("\n".join([lines[0], "[1]"] + lines[2:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(index + ["--dim", "512"]) == 2
    assert capsys.readouterr().err == f"usage error: --dim 512 does not match the dim 256 of store {store}\n"
    assert main(index) == 1
    assert capsys.readouterr().err.startswith("error: snapshot record 1: ")


@pytest.mark.parametrize("command", ["ingest", "index", "perturb", "run", "report"])
def test_each_subcommand_renders_its_help(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: adagate {command}")


def test_the_readme_config_example_is_a_valid_config(tmp_path):
    from adagate.cli import _load_config

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    assert _load_config(str(path)) == json.loads(block)


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["run", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2


def test_run_takes_no_seed(tmp_path, capsys):
    # Nothing in a run is random; only perturb takes a seed.
    data = str(builtin_fixture_path())
    chunks, store = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    out = tmp_path / "r.jsonl"
    assert main(["run", "--data", data, "--store", str(store), "--seed", "0", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


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
            raise TransportError("judge endpoint unreachable")

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
        json.dumps({"schema": SNAPSHOT_SCHEMA}),
        json.dumps({"schema": SNAPSHOT_SCHEMA, "dim": "x", "embedder": "hash"}),
        json.dumps({"schema": SNAPSHOT_SCHEMA, "dim": 0, "embedder": "hash"}),
        json.dumps({"schema": SNAPSHOT_SCHEMA, "dim": 2**32 + 1, "embedder": "hash"}),
        json.dumps({"schema": SNAPSHOT_SCHEMA, "dim": 256, "embedder": "memory"}),
        json.dumps([{"schema": SNAPSHOT_SCHEMA, "dim": 256}]),
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


def test_a_store_of_the_previous_schema_is_an_error_that_says_to_rebuild_it(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    header = {"schema": "index@1", "dim": 256, "embedder": "hash"}
    store.write_text(json.dumps(header) + "\n", encoding="utf-8")
    argv = ["run", "--data", str(builtin_fixture_path()), "--store", str(store), "--out", str(tmp_path / "r.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'index@1'" in err and "adagate index" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


def test_a_hash_store_that_names_no_coordinate_function_is_an_error_that_says_to_rebuild_it(tmp_path, capsys):
    # Stores written before the header named the hash put tokens at other coordinates.
    store = tmp_path / "store.jsonl"
    header = {"schema": SNAPSHOT_SCHEMA, "dim": 256, "embedder": "hash"}
    store.write_text(json.dumps(header) + "\n", encoding="utf-8")
    argv = ["run", "--data", str(builtin_fixture_path()), "--store", str(store), "--out", str(tmp_path / "r.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "has hash None, not 'crc32-ms'" in err and "adagate index" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


def test_live_oracle_and_remote_embedder_defaults_come_from_their_classes():
    from adagate.cli import _make_embedder, _make_oracle
    from adagate.index import RemoteEmbedder
    from adagate.oracle import LiveOracle

    url = "http://svc/v1"
    oracle = _make_oracle("live", {"oracle": {"url": url}}, None)
    reference = LiveOracle(url, session=object())
    settings = ("url", "model", "judge_model", "key_env", "log_path")
    assert [getattr(oracle, name) for name in settings] == [getattr(reference, name) for name in settings]
    embedder = _make_embedder("remote", 64, {"index": {"remote": {"url": url}}})
    reference = RemoteEmbedder(url=url, dim=64, session=object())
    assert (embedder.key_env, embedder.model) == (reference.key_env, reference.model)
    oracle._session.close()
    embedder._session.close()


_NOT_UTF8 = b"\xff\xfe not utf-8 \x80\n"


@pytest.mark.parametrize(
    "case, code",
    [
        ("ingest-data-not-utf8", 1),
        ("index-chunks-not-utf8", 1),
        ("index-chunk-field-malformed", 1),
        ("report-in-not-utf8", 1),
        ("report-in-record-not-object", 1),
        ("run-store-record-not-utf8", 1),
        ("config-not-json", 2),
        ("config-not-object", 2),
        ("ingest-context-holds-a-one-item-list", 1),
        ("ingest-context-holds-a-number", 1),
    ],
)
def test_bad_input_file_is_an_error_not_a_traceback(tmp_path, capsys, case, code):
    data = str(builtin_fixture_path())
    bad = tmp_path / "bad.jsonl"
    store = str(tmp_path / "store.jsonl")
    if case == "ingest-data-not-utf8":
        bad.write_bytes(_NOT_UTF8)
        argv = ["ingest", "--data", str(bad), "--out", str(tmp_path / "chunks.jsonl")]
    elif case.startswith("ingest-context-"):
        item = ["T0"] if case.endswith("list") else 1
        argv = ["ingest", "--data", str(_fixture_with(tmp_path, lambda record: record.update(context=[item]))),
                "--out", str(tmp_path / "chunks.jsonl")]
    elif case.startswith("index-"):
        if case == "index-chunks-not-utf8":
            bad.write_bytes(_NOT_UTF8)
        else:
            record = {"chunk_id": "c", "title": "t", "body": "b", "token_len": "many", "source_example": "e",
                      "provenance": "original"}
            bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        argv = ["index", "--chunks", str(bad), "--store", store, "--namespace", "clean"]
    elif case.startswith("report-"):
        if case == "report-in-not-utf8":
            bad.write_bytes(_NOT_UTF8)
        else:
            bad.write_text("[1, 2]\n", encoding="utf-8")
        Path(str(bad) + ".manifest.json").write_text("{}", encoding="utf-8")
        argv = ["report", "--in", str(bad)]
    elif case == "run-store-record-not-utf8":
        chunks = tmp_path / "chunks.jsonl"
        assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
        assert main(["index", "--chunks", str(chunks), "--store", store, "--namespace", "clean"]) == 0
        with open(store, "ab") as handle:
            handle.write(_NOT_UTF8)
        argv = ["run", "--data", data, "--store", store, "--out", str(tmp_path / "r.jsonl")]
    else:
        bad.write_text("not json" if case == "config-not-json" else "[1, 2]", encoding="utf-8")
        argv = ["run", "--data", data, "--store", store, "--out", str(tmp_path / "r.jsonl"), "--config", str(bad)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error:" if code == 2 else "error:")
    assert "Traceback" not in err
    unpacked = {
        "ingest-context-holds-a-one-item-list": "not enough values to unpack (expected 2, got 1)",
        "ingest-context-holds-a-number": "cannot unpack non-iterable int object",
    }
    if case in unpacked:
        assert err == f"error: record 0: malformed context or supporting_facts ({unpacked[case]})\n"
        assert not (tmp_path / "chunks.jsonl").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--embedder", "remote", "--dim", "4", "--store", "NEW"], "remote embedder requires index.remote.url"),
        (["run", "--oracle", "live", "--store", "STORE"], "live oracle requires oracle.url"),
    ],
    ids=["index-remote-without-url", "run-live-without-url"],
)
def test_a_remote_backend_without_its_url_is_an_error(tmp_path, capsys, argv, message):
    data = str(builtin_fixture_path())
    chunks, store, new, out = (tmp_path / name for name in ("chunks.jsonl", "store.jsonl", "new.jsonl", "r.jsonl"))
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    rest = {
        "index": ["--chunks", str(chunks), "--namespace", "clean"],
        "run": ["--data", data, "--out", str(out)],
    }[argv[0]]
    paths = {"NEW": str(new), "STORE": str(store)}
    capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv] + rest + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message} in the config file\n"
    assert not new.exists()
    assert not list(tmp_path.glob("r.jsonl*"))


def test_run_with_unknown_namespace_fails_before_the_batch(tmp_path, capsys):
    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    out = tmp_path / "r.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    perturb = ["perturb", "--data", data, "--kind", "noise", "--rho", "0.5", "--seed", "3"]
    assert main(perturb + ["--out", str(tmp_path / "noise.jsonl"), "--store", str(store), "--dim", DIM]) == 0
    capsys.readouterr()
    assert main(["run", "--data", data, "--store", str(store), "--namespace", "nope", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown namespace 'nope' (store holds: clean, noise)\n"
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["chunks.jsonl", "noise.jsonl", "store.jsonl"]


def test_run_decodes_only_its_namespace(tmp_path, capsys):
    import base64
    import struct

    data = str(builtin_fixture_path())
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    perturb = ["perturb", "--data", data, "--kind", "noise", "--rho", "0.5", "--seed", "3"]
    assert main(perturb + ["--out", str(tmp_path / "noise.jsonl"), "--store", str(store), "--dim", DIM]) == 0
    run = ["run", "--data", data, "--store", str(store), "--L", "1", "--budget", "140", "--namespace"]
    assert main(run + ["noise", "--out", str(tmp_path / "intact.jsonl")]) == 0
    # Records are in namespace order, so line 1 is a clean record; repeat a coordinate in it.
    lines = store.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["namespace"] == "clean"
    record["vector"] = {
        "idx": base64.b64encode(struct.pack("<2I", 5, 5)).decode(),
        "val": base64.b64encode(struct.pack("<2d", 0.6, 0.8)).decode(),
    }
    store.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    capsys.readouterr()
    assert main(run + ["noise", "--out", str(tmp_path / "damaged.jsonl")]) == 0
    assert (tmp_path / "damaged.jsonl").read_bytes() == (tmp_path / "intact.jsonl").read_bytes()
    capsys.readouterr()
    assert main(run + ["clean", "--out", str(tmp_path / "clean.jsonl")]) == 1
    assert capsys.readouterr().err == "error: snapshot record 1: a coordinate repeats\n"
    assert not (tmp_path / "clean.jsonl").exists()


def _fixture_with(tmp_path: Path, change) -> Path:
    """A copy of the bundled fixture with ``change`` applied to its first record."""
    lines = builtin_fixture_path().read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    change(first)
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", encoding="utf-8")
    return path


def test_index_embeds_a_chunk_holding_a_lone_surrogate(tmp_path, capsys):
    # json.loads reads the escape "\ud800" as a lone surrogate, which strict UTF-8 cannot encode.
    data = _fixture_with(tmp_path, lambda record: record["context"][0][1].append("bad x\ud800y token."))
    assert '"bad x\\ud800y token."' in data.read_text(encoding="utf-8")
    chunks, store = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl"
    assert main(["ingest", "--data", str(data), "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    assert "Traceback" not in capsys.readouterr().err
    from adagate.index import VectorIndex

    chunk = VectorIndex.load(store).get_chunk("clean", "q000-p0")
    assert chunk.body.endswith("bad x\ud800y token.")


def test_run_writes_the_record_of_a_question_holding_a_lone_surrogate(tmp_path):
    data = str(builtin_fixture_path())
    chunks, store, out = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "r.jsonl"
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    odd = _fixture_with(tmp_path, lambda record: record.update(question=record["question"] + " x\ud800y"))
    assert main(["run", "--data", str(odd), "--store", str(store), "--budget", "140", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [record["example_id"] for record in records] == ["q000", "q001"]
    assert all("error" not in record for record in records)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["perturb", "--dim", "256"], "--dim"),
        (["perturb", "--config", "CONFIG"], "--config"),
        (["run", "--store", "STORE", "--log-oracle", "LOG"], "--log-oracle"),
        (["run", "--store", "STORE", "--oracle", "rules", "--log-oracle", "LOG"], "--log-oracle"),
    ],
    ids=["perturb-dim", "perturb-config", "run-log-oracle", "run-rules-log-oracle"],
)
def test_flag_without_effect_is_usage_error(tmp_path, capsys, argv, flag):
    data = str(builtin_fixture_path())
    chunks, store, config = tmp_path / "chunks.jsonl", tmp_path / "store.jsonl", tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", DIM]) == 0
    capsys.readouterr()
    names = {"STORE": str(store), "CONFIG": str(config), "LOG": str(tmp_path / "oracle.log")}
    rest = {
        "perturb": ["--data", data, "--kind", "noise", "--out", str(tmp_path / "p.jsonl")],
        "run": ["--data", data, "--out", str(tmp_path / "r.jsonl")],
    }[argv[0]]
    assert main([names.get(arg, arg) for arg in argv] + rest) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} ")
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["chunks.jsonl", "config.json", "store.jsonl"]
