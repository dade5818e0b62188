"""Offline outputs pinned byte for byte.

One CLI sweep over a 60-question seed-7 world at dim 256 with a rho-0.5
redundancy namespace: every mode at ``--L 3 --trace full``, then ``report``.
A rho-0.5 noise chunk file of the same world is pinned too, and so is the
snapshot that ``index`` and the redundancy ``perturb`` leave, which holds
the packed little-endian vectors. The sha256 of each results file, of the
report CSV, of the noise file and of the store must not change; a refactor
that alters any selection, score, trace field, record layout or snapshot
byte shows up here. The world reaches all three adagate termination reasons.
"""

from __future__ import annotations

import hashlib
import json

from adagate.cli import main
from adagate.controller import MODES
from adagate.synthetic import WorldSpec, generate_world, write_examples

EXPECTED_SHA256 = {
    "adagate": "d28117ac68588b471fc2be506c0215bec40a348784774fa60c94f43cc00e7fb0",
    "basic": "c2c78ab0d535628264743df79956587edfe7aca8b87cfc5658bda2e3a0a70ca6",
    "adaptive_k": "9efe4e1007022506a1f53b7cb15326a5e82b9a7ca080cf42f68aa4a345eca137",
    "seal_style": "06e918fd09e99f0b96d66545e48e7da93ecbe5b4f36797c1b1ff02b4c7144a08",
    "report.csv": "2fa4bf75367121a6458798c2cecb8c47d7468e2d02e5a7e87708523cd948eb7d",
    "perturb-noise": "35d3f30f04c98ab2d6bb23a5be4bf2b809d9fd22d9a5659f25a09351727cf7cc",
    "store": "572ae0ad21c399992823bf17a7e6eb644e2aa9a619be2622c94b2179d9de8c88",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_offline_sweep_outputs_are_pinned(tmp_path, capsys):
    data = tmp_path / "world.jsonl"
    write_examples(data, generate_world(WorldSpec(n_questions=60, seed=7)))
    chunks = tmp_path / "chunks.jsonl"
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--data", str(data), "--out", str(chunks)]) == 0
    assert main(["index", "--chunks", str(chunks), "--store", str(store), "--namespace", "clean", "--dim", "256"]) == 0
    perturb = ["perturb", "--data", str(data), "--kind", "redundancy", "--rho", "0.5", "--seed", "3"]
    assert main(perturb + ["--out", str(tmp_path / "red.jsonl"), "--store", str(store), "--dim", "256"]) == 0
    digests = {"store": _sha256(store)}

    outs = []
    for mode in MODES:
        out = tmp_path / f"{mode}.jsonl"
        run = ["run", "--data", str(data), "--store", str(store), "--namespace", "redundancy", "--mode", mode]
        assert main(run + ["--L", "3", "--k", "3", "--budget", "140", "--trace", "full", "--out", str(out)]) == 0
        digests[mode] = _sha256(out)
        outs.append(str(out))
    csv_path = tmp_path / "report.csv"
    assert main(["report", "--in", *outs, "--out", str(csv_path)]) == 0
    digests["report.csv"] = _sha256(csv_path)
    noise = tmp_path / "noise.jsonl"
    assert main(["perturb", "--data", str(data), "--kind", "noise", "--rho", "0.5", "--seed", "3", "--out", str(noise)]) == 0
    digests["perturb-noise"] = _sha256(noise)
    capsys.readouterr()

    records = [json.loads(line) for line in (tmp_path / "adagate.jsonl").read_text().splitlines()]
    reasons = {r["termination_reason"] for r in records}
    assert reasons == {"sufficient", "max_iterations", "no_useful_repair"}
    assert digests == EXPECTED_SHA256
