"""Offline outputs pinned byte for byte.

One CLI sweep over a 60-question seed-7 world at dim 256 with a rho-0.5
redundancy namespace (perturb seed 1): every mode at ``--L 3 --trace full``, then ``report``.
``adagate`` runs again at ``--L 6``, where 43 of the 60 runs revisit a
selection and 119 repair steps are replays of earlier ones; its digest was
taken before repair steps were replayed, so a replay that differs from the
step it copies shows up here.
A rho-0.5 noise chunk file of the same world is pinned too, and so is the
snapshot that ``index`` and the redundancy ``perturb`` leave, which holds
the packed little-endian vectors. The sha256 of each results file, of the
report CSV, of the noise file and of the store must not change; a refactor
that alters any selection, score, trace field, record layout or snapshot
byte shows up here. The world reaches all three adagate termination reasons
(one question ends with ``no_useful_repair``; at perturb seed 3 none does).
"""

from __future__ import annotations

import hashlib
import json

from adagate.cli import main
from adagate.controller import MODES
from adagate.synthetic import WorldSpec, generate_world, write_examples

EXPECTED_SHA256 = {
    "adagate": "738fe4d7c62965efed1773e7005a0c29bed23a588fb828fd9a767c88e2f1afa0",
    "basic": "5eb36556fab01a8f08323393d5e62f5d2c7660324b67370a1077df970ebaf828",
    "adaptive_k": "0c966f9e71a19bdda353916109edfdc9700ed3f4bdbc61c185b8f963800fd903",
    "seal_style": "f7e5bec7d1ce99682d45bcdf46324855c3e89c8a361e9c9d8d81cba41e926e65",
    "report.csv": "c9063990576df1cc6916c833db1a6a13090a73d7a2be0264efcdb96067498fc3",
    "perturb-noise": "35d3f30f04c98ab2d6bb23a5be4bf2b809d9fd22d9a5659f25a09351727cf7cc",
    "store": "e2970ae446665194069fd22a0c570887929e54f2b15a44a085dd648452aa8e1d",
    "adagate-L6": "7db20c870faa22643daa3f12eabbbae02eef9f8c0766dd8d95d91378916e234e",
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
    perturb = ["perturb", "--data", str(data), "--kind", "redundancy", "--rho", "0.5", "--seed", "1"]
    assert main(perturb + ["--out", str(tmp_path / "red.jsonl"), "--store", str(store), "--dim", "256"]) == 0
    digests = {"store": _sha256(store)}

    outs = []
    run = ["run", "--data", str(data), "--store", str(store), "--namespace", "redundancy"]
    run += ["--k", "3", "--budget", "140", "--trace", "full"]
    for mode in MODES:
        out = tmp_path / f"{mode}.jsonl"
        assert main(run + ["--mode", mode, "--L", "3", "--out", str(out)]) == 0
        digests[mode] = _sha256(out)
        outs.append(str(out))
    csv_path = tmp_path / "report.csv"
    assert main(["report", "--in", *outs, "--out", str(csv_path)]) == 0
    digests["report.csv"] = _sha256(csv_path)
    noise = tmp_path / "noise.jsonl"
    assert main(["perturb", "--data", str(data), "--kind", "noise", "--rho", "0.5", "--seed", "3", "--out", str(noise)]) == 0
    digests["perturb-noise"] = _sha256(noise)
    deep = tmp_path / "adagate-L6.jsonl"
    assert main(run + ["--mode", "adagate", "--L", "6", "--out", str(deep)]) == 0
    digests["adagate-L6"] = _sha256(deep)
    capsys.readouterr()

    records = [json.loads(line) for line in (tmp_path / "adagate.jsonl").read_text().splitlines()]
    reasons = {r["termination_reason"] for r in records}
    assert reasons == {"sufficient", "max_iterations", "no_useful_repair"}
    assert digests == EXPECTED_SHA256
