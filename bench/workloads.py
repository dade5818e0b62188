"""The three benchmark workloads and the per-layer metrics of the traced pass.

Every workload is a closed loop with one client: questions run back to
back, each starting when the previous one finished. The program is driven
only through its public entry points (``controller.run_example``,
``VectorIndex``, ``perturb``, ``evaluate`` and the CLI), and every call goes
through a module attribute so that the traced pass can wrap it.

* ``retrieval-5k``: one 500-question world (5,000 chunks) in one ``clean``
  namespace, ``adagate`` mode with L=1. Each question makes about four
  full-scan ``query_top_k`` calls, so retrieval is nearly all of the time.
* ``distractor-pools``: HotpotQA-distractor style. Each question gets a
  fresh ``VectorIndex`` holding only its own ten paragraphs plus their
  redundancy variants (about 20 chunks), then runs ``adagate`` with L=3.
  The upsert is part of the per-question work, so embedding dominates and
  retrieval is a small share: the bypass workload for retrieval changes.
* ``cli-sweep``: the real CLI in subprocesses over a 50-question world:
  ingest, index, noise perturbation, then ``run`` for every mode with
  ``--jobs 2`` and a ``report``. The only workload that exercises snapshot
  save/load, result and manifest writes, the thread pool and the baselines.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from adagate import cli, controller, corpus, evaluate, index, oracle, perturb, selection
from adagate.errors import AdagateError
from adagate.synthetic import WorldSpec, generate_world, write_examples

import stats
from tracer import PHASE_QUESTIONS, Target, Tracer, totals_by_name

DIM = 1 << 20
K = 3
BUDGET = 140
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups per run

# Each in-process run asks a fixed question set in passes. Accuracy, input
# tokens and results_sha256 come from the first pass, so they do not depend
# on how fast the program is. A question's latency is the median of its asks.
RETRIEVAL_QUESTIONS = 500  # world size: 5,000 chunks in the namespace
# The first this-many are asked: few enough for about three asks each in a
# 30 s run, so a question's median latency shrugs off one slow ask.
RETRIEVAL_ASKED = 200
DISTRACTOR_QUESTIONS = 2000  # all asked
DISTRACTOR_RHO = 0.5
POOL_NAMESPACE = "pool"
CLI_QUESTIONS = 50
CLI_RHO = 0.5
CLI_MIN_SWEEPS = 3  # setup_s is the median over sweeps
CLI_PROBE_SAMPLES = 5  # speed-probe samples before and after each command
SUBPROCESS_TIMEOUT_S = 150

ORACLE_METHODS = (
    "extract_ledger",
    "assess_sufficiency",
    "make_queries",
    "generate_answer",
    "judge_answer",
    "novelty",
)
TERMINATION_REASONS = (
    controller.REASON_SUFFICIENT,
    controller.REASON_NO_USEFUL_REPAIR,
    controller.REASON_MAX_ITERATIONS,
    controller.REASON_NONE,
)
CLI_SUBCOMMANDS = ("ingest", "index", "perturb", "run", "report")

END_TO_END = (
    ("questions_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "ratio", "higher"),
    ("input_tokens_mean", "tokens", "lower"),
)

PER_LAYER = (
    ("index.query.calls_per_q", "count", "lower"),
    ("index.query.self_ms_per_q", "ms", "lower"),
    ("index.query.chunks_scanned_per_q", "count", "lower"),
    ("index.embed.calls_per_q", "count", "lower"),
    ("index.embed.self_ms_per_q", "ms", "lower"),
    ("index.embed.miss_ratio", "ratio", "lower"),
    ("index.upsert.self_ms_per_q", "ms", "lower"),
    ("index.save.s", "s", "lower"),
    ("index.load.s", "s", "lower"),
    ("index.snapshot.mb", "MB", "lower"),
    *(
        (f"oracle.{method}.{kind}", unit, "lower")
        for method in ORACLE_METHODS
        for kind, unit in (("calls_per_q", "count"), ("self_ms_per_q", "ms"))
    ),
    ("scoring.score_candidate.calls_per_q", "count", "lower"),
    ("scoring.score_candidate.self_ms_per_q", "ms", "lower"),
    ("selection.replace_update.self_ms_per_q", "ms", "lower"),
    ("selection.select_evidence.calls_per_q", "count", "lower"),
    ("selection.k_eff_mean", "count", "lower"),
    ("selection.admitted_ratio", "ratio", "higher"),
    ("controller.self_ms_per_q", "ms", "lower"),
    ("controller.candidates_per_hit", "ratio", "higher"),
    ("controller.repair_changed_ratio", "ratio", "higher"),
    ("controller.iterations_per_q", "count", "lower"),
    *(
        (f"controller.termination.{reason}", "ratio", "higher" if reason == "sufficient" else "lower")
        for reason in TERMINATION_REASONS
    ),
    ("perturb.inject.s", "s", "lower"),
    ("corpus.chunk_corpus.s", "s", "lower"),
    ("corpus.load_examples.s", "s", "lower"),
    *((f"cli.{sub}.s", "s", "lower") for sub in CLI_SUBCOMMANDS),
    *((f"cli.run.{mode}.s", "s", "lower") for mode in controller.MODES),
    ("evaluate.aggregate.s", "s", "lower"),
    ("evaluate.read_results.s", "s", "lower"),
    ("trace.questions_per_s_untraced", "1/s", "higher"),
    ("trace.questions_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass
class RunConfig:
    root: Path
    seconds: float
    world_seed: int
    perturb_seed: int
    trace: bool


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------- tracing


def adagate_targets(traces: list[dict]) -> list[Target]:
    """Every public call the traced pass wraps, patched where its caller looks it up.

    ``traces`` receives ``ControllerTrace.as_dict(full=True)`` of every
    ``run_example`` call made while the patch is active.
    """
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def note_embed(tracer: Tracer, args: tuple, _result) -> None:
        texts = seen.setdefault(args[0], set())
        if args[1] not in texts:
            texts.add(args[1])
            tracer.count("index.embed.miss")

    def note_query(tracer: Tracer, args: tuple, _result) -> None:
        tracer.count("index.query.scanned", args[0].size(args[1]))

    def note_save(tracer: Tracer, args: tuple, _result) -> None:
        tracer.record_max("index.snapshot.bytes", os.path.getsize(args[1]))

    def note_trace(_tracer: Tracer, _args: tuple, result) -> None:
        traces.append(result.as_dict(full=True))

    def question_id(args: tuple) -> str:
        return args[0].id

    vi, embedder, rules = index.VectorIndex, index.HashingEmbedder, oracle.RuleBasedOracle
    targets = [
        Target(vi, "query_top_k", "index.query", note=note_query),
        Target(vi, "upsert", "index.upsert"),
        Target(vi, "save", "index.save", note=note_save),
        Target(vi, "load", "index.load"),
        Target(embedder, "embed_one", "index.embed", note=note_embed),
        *(Target(rules, method, f"oracle.{method}") for method in ORACLE_METHODS),
        Target(controller, "score_candidate", "scoring.score_candidate"),
        Target(controller, "run_example", "controller.run_example", note=note_trace, qid=question_id),
        Target(cli, "run_example", "controller.run_example", note=note_trace, qid=question_id),
        Target(cli._COMMANDS, "run", lambda args: f"cli.run.{args[0].mode}"),
        *(Target(cli._COMMANDS, sub, f"cli.{sub}") for sub in CLI_SUBCOMMANDS if sub != "run"),
    ]
    for owner, name, layer in (
        (controller, "effective_capacity", "selection.effective_capacity"),
        (selection, "effective_capacity", "selection.effective_capacity"),
        (controller, "select_evidence", "selection.select_evidence"),
        (selection, "select_evidence", "selection.select_evidence"),
        (controller, "replace_update", "selection.replace_update"),
        (perturb, "inject_noise", "perturb.inject"),
        (perturb, "inject_redundancy", "perturb.inject"),
        (cli, "inject_noise", "perturb.inject"),
        (cli, "inject_redundancy", "perturb.inject"),
        (corpus, "chunk_corpus", "corpus.chunk_corpus"),
        (cli, "chunk_corpus", "corpus.chunk_corpus"),
        (corpus, "load_examples", "corpus.load_examples"),
        (cli, "load_examples", "corpus.load_examples"),
        (evaluate, "evidence_prf", "evaluate.evidence_prf"),
        (cli, "evidence_prf", "evaluate.evidence_prf"),
        (cli, "read_results", "evaluate.read_results"),
        (cli, "aggregate", "evaluate.aggregate"),
    ):
        targets.append(Target(owner, name, layer))
    return targets


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_ratios(traces: list[dict]) -> dict[str, float]:
    """Useful-work ratios from full controller traces.

    Candidate, admission, repair and capacity ratios cover ``adagate``
    traces only (the baselines neither dedup nor repair); termination
    shares cover every trace.
    """
    hits = kept = admitted = repairs = changed = loops = 0
    k_effs: list[int] = []
    reasons = Counter(t["termination_reason"] for t in traces)
    adagate_traces = [t for t in traces if t["mode"] == controller.MODE_ADAGATE]
    for t in adagate_traces:
        iterations = t["iterations"]
        loops += len(iterations) - 1
        previous = None
        for it in iterations:
            hits += sum(len(h) for h in it["hits"].values())
            kept += len(it["scores"])
            admitted += len(set(it["selected_ids"]) & set(it["scores"]))
            if it["k_eff"]:
                k_effs.append(it["k_eff"])
            if it["index"] >= 1 and it["sufficient"] is False:
                repairs += 1
                changed += it["selected_ids"] != previous
            previous = it["selected_ids"]
    out = {
        "controller.candidates_per_hit": _ratio(kept, hits),
        "selection.admitted_ratio": _ratio(admitted, kept),
        "controller.repair_changed_ratio": _ratio(changed, repairs),
        "controller.iterations_per_q": _ratio(loops, len(adagate_traces)),
        "selection.k_eff_mean": _ratio(sum(k_effs), len(k_effs)),
    }
    for reason in TERMINATION_REASONS:
        out[f"controller.termination.{reason}"] = _ratio(reasons[reason], len(traces))
    return out


def layer_metrics(
    tracer: Tracer, traces: list[dict], questions: int, qps_untraced: float, qps_traced: float
) -> dict[str, float]:
    """Per-layer metrics: per-question figures from the questions phase, ``.s`` totals from all."""
    per_q = totals_by_name(tracer.spans, PHASE_QUESTIONS)
    every = totals_by_name(tracer.spans)

    def calls(name: str) -> float:
        return _ratio(per_q[name].calls, questions)

    def self_ms(name: str) -> float:
        return _ratio(per_q[name].self_ns / 1e6, questions)

    def total_s(name: str) -> float:
        return every[name].total_ns / 1e9

    m = {
        "index.query.calls_per_q": calls("index.query"),
        "index.query.self_ms_per_q": self_ms("index.query"),
        "index.query.chunks_scanned_per_q": _ratio(
            tracer.counters[(PHASE_QUESTIONS, "index.query.scanned")], questions
        ),
        "index.embed.calls_per_q": calls("index.embed"),
        "index.embed.self_ms_per_q": self_ms("index.embed"),
        "index.embed.miss_ratio": _ratio(
            tracer.counters[(PHASE_QUESTIONS, "index.embed.miss")], per_q["index.embed"].calls
        ),
        "index.upsert.self_ms_per_q": self_ms("index.upsert"),
        "index.save.s": total_s("index.save"),
        "index.load.s": total_s("index.load"),
        "index.snapshot.mb": tracer.maxima.get("index.snapshot.bytes", 0) / 1e6,
        "scoring.score_candidate.calls_per_q": calls("scoring.score_candidate"),
        "scoring.score_candidate.self_ms_per_q": self_ms("scoring.score_candidate"),
        "selection.replace_update.self_ms_per_q": self_ms("selection.replace_update"),
        "selection.select_evidence.calls_per_q": calls("selection.select_evidence"),
        "controller.self_ms_per_q": self_ms("controller.run_example"),
        "perturb.inject.s": total_s("perturb.inject"),
        "corpus.chunk_corpus.s": total_s("corpus.chunk_corpus"),
        "corpus.load_examples.s": total_s("corpus.load_examples"),
        "cli.run.s": sum(total_s(f"cli.run.{mode}") for mode in controller.MODES),
        "evaluate.aggregate.s": total_s("evaluate.aggregate"),
        "evaluate.read_results.s": total_s("evaluate.read_results"),
        "trace.questions_per_s_untraced": qps_untraced,
        "trace.questions_per_s_traced": qps_traced,
        "trace.overhead_ratio": _ratio(qps_untraced - qps_traced, qps_untraced),
    }
    for method in ORACLE_METHODS:
        m[f"oracle.{method}.calls_per_q"] = calls(f"oracle.{method}")
        m[f"oracle.{method}.self_ms_per_q"] = self_ms(f"oracle.{method}")
    for sub in CLI_SUBCOMMANDS:
        if sub != "run":
            m[f"cli.{sub}.s"] = total_s(f"cli.{sub}")
    for mode in controller.MODES:
        m[f"cli.run.{mode}.s"] = total_s(f"cli.run.{mode}")
    m.update(trace_ratios(traces))
    return m


def _finish_trace(config: RunConfig, workload: str, tracer: Tracer) -> str:
    out_dir = config.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{config.world_seed}.jsonl"
    tracer.write(path)
    return str(path.relative_to(config.root))


# ---------------------------------------------------------------- in-process workloads


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _result_record(example, trace, judge: oracle.RuleBasedOracle) -> dict:
    correct = judge.judge_answer(example.question, example.gold_answer, trace.final_answer)
    precision, recall, f1 = evaluate.evidence_prf(trace.final_titles, example.gold_titles)
    return {
        "example_id": example.id,
        "mode": trace.mode,
        "namespace": trace.namespace,
        "correct": correct,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "input_tokens": trace.input_tokens,
        "docs_passed": trace.docs_passed,
        "termination_reason": trace.termination_reason,
        "answer": trace.final_answer,
        "final_chunk_ids": trace.final_chunk_ids,
    }


@dataclass
class LoopResult:
    """Records and latencies of a loop, aligned with the asks in order.

    With a speed probe, latencies and the wall time are at nominal speed.
    """

    questions: list
    records: list[dict]
    latencies_s: list[float | None]
    wall_s: float

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if "error" not in r)

    @property
    def questions_per_s(self) -> float:
        return self.completed / self.wall_s

    @property
    def first_pass(self) -> list[dict]:
        return self.records[: len(self.questions)]

    def question_latencies_s(self) -> list[float]:
        """Per question, the median of its successful asks."""
        n = len(self.questions)
        per_question = []
        for q in range(n):
            asks = [a for a in self.latencies_s[q::n] if a is not None]
            if asks:
                per_question.append(stats.median(asks))
        return per_question


Ask = Callable[[object, int], tuple[dict, float | None]]


def question_loop(
    questions: list,
    ask: Ask,
    seconds: float,
    tracer: Tracer | None = None,
    probe: stats.SpeedProbe | None = None,
) -> LoopResult:
    """Ask ``questions`` back to back in passes, for ``seconds`` and at least one pass.

    ``ask(example, pass_number)`` returns the result record and the
    question's latency in seconds (None when it failed). With a probe,
    every latency and the time of every ask are rescaled to nominal speed
    as they are taken, and the probe's own samples are left out.
    """
    records: list[dict] = []
    latencies: list[float | None] = []
    n = len(questions)
    start = time.perf_counter()
    wall = 0.0
    i = 0
    while i < n or time.perf_counter() - start < seconds:
        if probe is not None:
            probe.maybe_sample()
        example = questions[i % n]
        step = (example, i // n)
        ask_start = time.perf_counter()
        if tracer is None:
            record, latency = ask(*step)
        else:
            record, latency = tracer.call("bench.question", ask, step, {}, example.id)
        ask_s = time.perf_counter() - ask_start
        if probe is not None:
            ask_s = probe.scale(ask_s)
            latency = None if latency is None else probe.scale(latency)
        records.append(record)
        latencies.append(latency)
        wall += ask_s
        i += 1
    return LoopResult(questions, records, latencies, wall)


def check_records(questions: list, records: list[dict], allowed_ids: Callable[[object], set]) -> list[str]:
    """Budget, chunk-existence and repeat-determinism checks; returns problems found."""
    problems: list[str] = []
    n = len(questions)
    for i, record in enumerate(records):
        example = questions[i % n]
        if "error" in record:
            problems.append(f"{record['example_id']}: raised {record['error']}")
            continue
        evidence_tokens = record["input_tokens"] - corpus.count_tokens(example.question)
        if evidence_tokens > BUDGET:
            problems.append(f"{example.id}: evidence uses {evidence_tokens} tokens > B={BUDGET}")
        missing = set(record["final_chunk_ids"]) - allowed_ids(example)
        if missing:
            problems.append(f"{example.id}: final chunks not in namespace: {sorted(missing)}")
        if i >= n and record != records[i % n]:
            problems.append(f"{example.id}: repeated question gave a different result")
    return problems


def _quality(first_pass: list[dict]) -> dict[str, float]:
    ok = [r for r in first_pass if "error" not in r]
    return {
        "accuracy": _ratio(sum(1 for r in ok if r["correct"]), len(first_pass)),
        "input_tokens_mean": _ratio(sum(r["input_tokens"] for r in ok), len(ok)),
    }


def _in_process(
    config: RunConfig,
    name: str,
    questions: list,
    setup: Callable[[], object],
    make_ask: Callable[[object], Ask],
    allowed_ids: Callable[[object], Callable[[object], set]],
) -> Outcome:
    """Timed pass (set-up repeated, then the loop) or the traced pass."""
    info: dict = {}
    if config.trace:
        state = setup()
        untraced = question_loop(questions, make_ask(state), config.seconds)
        problems = check_records(questions, untraced.records, allowed_ids(state))
        del state
        tracer, traces = Tracer(), []
        with tracer.patched(adagate_targets(traces)):
            state = setup()
            tracer.phase = PHASE_QUESTIONS
            traced = question_loop(questions, make_ask(state), config.seconds, tracer)
        problems += check_records(questions, traced.records, allowed_ids(state))
        metrics = layer_metrics(
            tracer, traces, len(traced.records), untraced.questions_per_s, traced.questions_per_s
        )
        info.update(spans_file=_finish_trace(config, name, tracer), traced_questions=len(traced.records))
        records = untraced.records + traced.records
    else:
        probe = stats.SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous set-up before building the next
            probe.sample(3)
            start = time.perf_counter()
            state = setup()
            setup_times.append(probe.scale(time.perf_counter() - start))
        loop = question_loop(questions, make_ask(state), config.seconds, probe=probe)
        problems = check_records(questions, loop.records, allowed_ids(state))
        latencies = loop.question_latencies_s()
        tail_s, percentile = stats.tail(latencies)
        metrics = {
            "questions_per_s": loop.questions_per_s,
            "latency_p50_ms": stats.median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": stats.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
            **_quality(loop.first_pass),
        }
        info.update(
            reference_samples=len(probe.samples),
            reference_median_s=stats.median(probe.samples),
            latency_tail_percentile=round(percentile, 3),
            latency_n=len(latencies),
            asks=len(loop.records),
            setup_repeats=SETUP_REPEATS,
            results_sha256=stats.results_sha256(loop.first_pass),
        )
        records = loop.records
    failed, attempted = stats.failed_ratio(records)
    info["failed_ratio"] = _ratio(failed, attempted)
    return Outcome(metrics, attempted, failed, problems, info)


def _timed_run(example, run: Callable[[], object], judge) -> tuple[dict, float | None]:
    """Time ``run()`` (which returns a controller trace) and build the result record."""
    start = time.perf_counter()
    try:
        trace = run()
    except AdagateError as exc:
        return {"example_id": example.id, "error": str(exc)}, None
    latency = time.perf_counter() - start
    return _result_record(example, trace, judge), latency


def retrieval_5k(config: RunConfig) -> tuple[Outcome, dict]:
    world = generate_world(WorldSpec(n_questions=RETRIEVAL_QUESTIONS, seed=config.world_seed))
    cfg = controller.ControllerConfig(mode=controller.MODE_ADAGATE, max_iterations=1, k=K, budget=BUDGET)
    judge = oracle.RuleBasedOracle()

    def setup() -> index.VectorIndex:
        chunks = corpus.chunk_corpus(world)
        idx = index.VectorIndex(index.HashingEmbedder(dim=DIM))
        idx.upsert(cfg.namespace, chunks)
        return idx

    def make_ask(idx: index.VectorIndex) -> Ask:
        return lambda example, _pass: _timed_run(
            example, lambda: controller.run_example(example, cfg, idx, judge), judge
        )

    def allowed_ids(idx: index.VectorIndex) -> Callable[[object], set]:
        ids = {c.chunk_id for c in idx.chunks(cfg.namespace)}
        return lambda _example: ids

    outcome = _in_process(config, "retrieval-5k", world[:RETRIEVAL_ASKED], setup, make_ask, allowed_ids)
    sizes = {
        "questions": len(world),
        "questions_asked": RETRIEVAL_ASKED,
        "clean_chunks": sum(len(e.paragraphs) for e in world),
    }
    return outcome, sizes


def distractor_pools(config: RunConfig) -> tuple[Outcome, dict]:
    world = generate_world(WorldSpec(n_questions=DISTRACTOR_QUESTIONS, seed=config.world_seed))
    cfg = controller.ControllerConfig(
        mode=controller.MODE_ADAGATE, max_iterations=3, k=K, budget=BUDGET, namespace=POOL_NAMESPACE
    )
    judge = oracle.RuleBasedOracle()
    perturb_cfg = perturb.PerturbConfig(kind=perturb.KIND_REDUNDANCY, rho=DISTRACTOR_RHO, seed=config.perturb_seed)

    def setup() -> dict[str, list]:
        chunks = corpus.chunk_corpus(world)
        pools: dict[str, list] = {e.id: [] for e in world}
        for chunk in perturb.inject_redundancy(world, chunks, perturb_cfg):
            pools[chunk.source_example].append(chunk)
        return pools

    def make_ask(pools: dict[str, list]) -> Ask:
        # One embedder is shared by every question of a pass over the world;
        # each pass starts a fresh one, so every question embeds unseen texts.
        embedder, embedder_pass = None, -1

        def per_question(example):
            idx = index.VectorIndex(embedder)
            idx.upsert(POOL_NAMESPACE, pools[example.id])
            return controller.run_example(example, cfg, idx, judge)

        def ask(example, pass_number: int):
            nonlocal embedder, embedder_pass
            if pass_number != embedder_pass:
                embedder, embedder_pass = index.HashingEmbedder(dim=DIM), pass_number
            return _timed_run(example, lambda: per_question(example), judge)

        return ask

    def allowed_ids(pools: dict[str, list]) -> Callable[[object], set]:
        return lambda example: {c.chunk_id for c in pools[example.id]}

    outcome = _in_process(config, "distractor-pools", world, setup, make_ask, allowed_ids)
    sizes = {"questions": len(world), "paragraphs_per_question": len(world[0].paragraphs), "rho": DISTRACTOR_RHO}
    return outcome, sizes


# ---------------------------------------------------------------- cli-sweep


def _sweep_argvs(data: Path, work: Path, perturb_seed: int) -> tuple[list[list[str]], dict[str, list[str]], list[str]]:
    store = str(work / "store.jsonl")
    setup = [
        ["ingest", "--data", str(data), "--out", str(work / "chunks.jsonl")],
        ["index", "--chunks", str(work / "chunks.jsonl"), "--store", store, "--namespace", "clean",
         "--dim", str(DIM)],
        ["perturb", "--data", str(data), "--kind", "noise", "--rho", str(CLI_RHO), "--seed", str(perturb_seed),
         "--out", str(work / "noise.jsonl"), "--store", store],
    ]
    runs = {
        mode: ["run", "--data", str(data), "--store", store, "--namespace", "noise", "--mode", mode,
               "--L", "1", "--k", str(K), "--budget", str(BUDGET), "--oracle", "rules", "--embedder", "hash",
               "--jobs", "2", "--trace", "full", "--out", str(work / f"{mode}.jsonl")]
        for mode in controller.MODES
    }
    report = ["report", "--in", *(str(work / f"{mode}.jsonl") for mode in controller.MODES),
              "--out", str(work / "report.csv")]
    return setup, runs, report


@dataclass
class Sweep:
    work: Path
    setup_s: float
    run_s: dict[str, float]
    problems: list[str]
    records: list[dict]

    @property
    def digest(self) -> str:
        return stats.results_sha256(self.records)


def _sweep(
    world: list, data: Path, work: Path, perturb_seed: int, invoke: Callable[[list[str]], int],
    tracer: Tracer | None = None, probe: stats.SpeedProbe | None = None,
) -> Sweep:
    """One ingest/index/perturb/run×4/report pass; reads back the result records.

    With a probe, the probe is sampled before and after every command,
    and every command's time is rescaled to nominal speed.
    """
    work.mkdir(parents=True)
    setup_argvs, run_argvs, report_argv = _sweep_argvs(data, work, perturb_seed)
    problems: list[str] = []

    def step(argv: list[str]) -> float:
        if probe is not None:
            probe.sample(CLI_PROBE_SAMPLES)
        start = time.perf_counter()
        code = invoke(argv)
        wall = time.perf_counter() - start
        if code:
            problems.append(f"{' '.join(argv[:1] + argv[-2:])} exited with {code}")
        if probe is None:
            return wall
        probe.sample(CLI_PROBE_SAMPLES)
        return probe.scale(wall, latest=2 * CLI_PROBE_SAMPLES)

    setup_s = sum(step(argv) for argv in setup_argvs)
    if tracer is not None:
        tracer.phase = PHASE_QUESTIONS
    run_s: dict[str, float] = {}
    records: list[dict] = []
    for mode, argv in run_argvs.items():
        run_s[mode] = step(argv)
    if tracer is not None:
        tracer.phase = "report"
    step(report_argv)
    for mode in controller.MODES:
        path = work / f"{mode}.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] if path.exists() else []
        if [r.get("example_id") for r in rows] != [e.id for e in world]:
            problems.append(f"{path.name}: expected one record per question in order, got {len(rows)} records")
        records.extend(rows)
    return Sweep(work, setup_s, run_s, problems, records)


def check_sweep(world: list, sweep: Sweep) -> list[str]:
    """Budget, chunk-existence and report checks on one sweep's outputs."""
    by_id = {e.id: e for e in world}
    noise_ids = {c.chunk_id for c in index.VectorIndex.load(sweep.work / "store.jsonl").chunks("noise")}
    problems: list[str] = []
    for r in sweep.records:
        if "error" in r:
            problems.append(f"{r['example_id']}: {r['error']}")
            continue
        example = by_id[r["example_id"]]
        # B binds only the adagate controller; the baselines pass a fixed
        # top-k, an adaptive cut or one document, whatever its length.
        evidence_tokens = r["input_tokens"] - corpus.count_tokens(example.question)
        if r["mode"] == controller.MODE_ADAGATE and evidence_tokens > BUDGET:
            problems.append(f"{r['mode']} {example.id}: evidence uses {evidence_tokens} tokens > B={BUDGET}")
        missing = set(r["trace"]["final_chunk_ids"]) - noise_ids
        if missing:
            problems.append(f"{r['mode']} {example.id}: final chunks not in namespace: {sorted(missing)}")
    return problems + check_report(sweep.work / "report.csv", sweep.records)


def check_report(path: Path, records: list[dict]) -> list[str]:
    """The report CSV's accuracy must equal the accuracy recomputed from the results."""
    if not path.exists():
        return [f"{path.name} was not written"]
    groups: dict[tuple[str, str], list[bool]] = {}
    for r in records:
        if "error" not in r:
            groups.setdefault((r["condition"], r["mode"]), []).append(bool(r["correct"]))
    rows = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    reported = {(row["condition"], row["mode"]): row["accuracy"] for row in rows}
    expected = {key: f"{100.0 * sum(v) / len(v):.1f}" for key, v in groups.items()}
    if reported != expected:
        return [f"report accuracy {reported} != recomputed {expected}"]
    return []


def _sweep_failures(world: list, sweep: Sweep) -> tuple[int, int]:
    """Failed and attempted questions: error records plus questions with no record."""
    attempted = len(world) * len(controller.MODES)
    failed, _ = stats.failed_ratio(sweep.records)
    return failed + attempted - len(sweep.records), attempted


def _subprocess_invoker(root: Path) -> Callable[[list[str]], int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    def invoke(argv: list[str]) -> int:
        proc = subprocess.run(
            [sys.executable, "-m", "adagate.cli", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SUBPROCESS_TIMEOUT_S,
            check=False,
        )
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        return proc.returncode

    return invoke


def _in_process_invoke(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_sweep(config: RunConfig) -> tuple[Outcome, dict]:
    world = generate_world(WorldSpec(n_questions=CLI_QUESTIONS, seed=config.world_seed))
    base = config.root / ".bench_out" / f"cli-sweep-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    try:
        data = base / "data.jsonl"
        write_examples(data, world)
        run = _cli_traced if config.trace else _cli_timed
        outcome = run(config, world, data, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    sizes = {"questions": len(world), "clean_chunks": sum(len(e.paragraphs) for e in world), "rho": CLI_RHO}
    return outcome, sizes


def _cli_timed(config: RunConfig, world: list, data: Path, base: Path) -> Outcome:
    # The CLI children inherit this process's single-CPU affinity, so the
    # speed probe samples the CPU the commands run on. The GIL serialises
    # the two --jobs threads either way.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    invoke = _subprocess_invoker(config.root)
    probe = stats.SpeedProbe()
    sweeps: list[Sweep] = []
    problems: list[str] = []
    start = time.perf_counter()
    while len(sweeps) < CLI_MIN_SWEEPS or time.perf_counter() - start < config.seconds:
        sweep = _sweep(world, data, base / f"sweep{len(sweeps)}", config.perturb_seed, invoke, probe=probe)
        if not sweeps:
            problems += check_sweep(world, sweep)
        problems += sweep.problems
        shutil.rmtree(sweep.work)
        sweeps.append(sweep)
    if len({s.digest for s in sweeps}) != 1:
        problems.append("sweeps over the same inputs produced different results")
    run_walls = [wall for s in sweeps for wall in s.run_s.values()]
    # A subprocess exposes no per-question timing, so each question of a
    # mode is given the median of that mode's run calls, divided by the
    # call's question count.
    mode_wall = {mode: stats.median([s.run_s[mode] for s in sweeps]) for mode in controller.MODES}
    latencies = [mode_wall[mode] / len(world) for mode in controller.MODES for _ in world]
    tail_s, percentile = stats.tail(latencies)
    ok = [r for r in sweeps[0].records if "error" not in r]
    metrics = {
        "questions_per_s": len(run_walls) * len(world) / sum(run_walls),
        "latency_p50_ms": stats.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": stats.median([s.setup_s for s in sweeps]),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "accuracy": _ratio(sum(1 for r in ok if r["correct"]), len(world) * len(controller.MODES)),
        "input_tokens_mean": _ratio(sum(r["input_tokens"] for r in ok), len(ok)),
    }
    counts = [_sweep_failures(world, s) for s in sweeps]
    failed, attempted = sum(c[0] for c in counts), sum(c[1] for c in counts)
    info = {
        "reference_samples": len(probe.samples),
        "reference_median_s": stats.median(probe.samples),
        "sweeps": len(sweeps),
        "latency_tail_percentile": round(percentile, 3),
        "latency_n": len(latencies),
        "results_sha256": sweeps[0].digest,
        "failed_ratio": _ratio(failed, attempted),
        "run_s_median_by_mode": mode_wall,
    }
    return Outcome(metrics, attempted, failed, problems, info)


def _cli_traced(config: RunConfig, world: list, data: Path, base: Path) -> Outcome:
    untraced = _sweep(world, data, base / "untraced", config.perturb_seed, _in_process_invoke)
    tracer, traces = Tracer(), []
    with tracer.patched(adagate_targets(traces)):
        traced = _sweep(world, data, base / "traced", config.perturb_seed, _in_process_invoke, tracer)
    problems = untraced.problems + traced.problems + check_sweep(world, untraced) + check_sweep(world, traced)
    if untraced.digest != traced.digest:
        problems.append("the traced sweep produced different results from the untraced sweep")
    questions = len(world) * len(controller.MODES)
    metrics = layer_metrics(
        tracer,
        traces,
        questions,
        questions / sum(untraced.run_s.values()),
        questions / sum(traced.run_s.values()),
    )
    counts = [_sweep_failures(world, s) for s in (untraced, traced)]
    failed, attempted = sum(c[0] for c in counts), sum(c[1] for c in counts)
    info = {
        "spans_file": _finish_trace(config, "cli-sweep", tracer),
        "traced_questions": questions,
        "results_sha256": untraced.digest,
        "failed_ratio": _ratio(failed, attempted),
    }
    return Outcome(metrics, attempted, failed, problems, info)


WORKLOADS: dict[str, Callable[[RunConfig], tuple[Outcome, dict]]] = {
    "retrieval-5k": retrieval_5k,
    "distractor-pools": distractor_pools,
    "cli-sweep": cli_sweep,
}
