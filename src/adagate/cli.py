"""Command-line entry point for reproducible batch experiments.

Subcommands: ``ingest`` (load and chunk a corpus file), ``index`` (embed and
upsert chunks into a namespace of an on-disk snapshot), ``perturb`` (build a
noise or redundancy namespace), ``run`` (execute a controller over a
namespace and write per-example results), and ``report`` (aggregate results
into a table/CSV). Offline mode (`--oracle rules --embedder hash`) touches
no network and is fully deterministic given ``--seed``.

Every ``run`` writes a manifest next to the results file; ``report``
refuses non-empty results lacking one unless ``--force``. Credentials are
only ever read from environment variables named in the config file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields
from pathlib import Path

from . import __version__
from .controller import MODES, ControllerConfig, run_example
from .corpus import chunk_corpus, load_examples, read_chunks, write_chunks
from .errors import AdagateError
from .evaluate import ExampleResult, aggregate, evidence_prf, read_results, render_csv, render_table
from .index import HashingEmbedder, RemoteEmbedder, VectorIndex, read_snapshot_header
from .oracle import LiveOracle, LiveOracleConfig, RuleBasedOracle
from .perturb import KIND_NOISE, PerturbConfig, inject_noise, inject_redundancy
from .scoring import DEFAULT_WEIGHTS, UtilityWeights

MANIFEST_SCHEMA = "manifest@1"
MANIFEST_SUFFIX = ".manifest.json"


class UsageError(Exception):
    """Invalid flag value or combination caught after parsing."""


def _checked(build, *args, **kwargs):
    """Build a parameter object, reporting a value it rejects as a usage error.

    A config-file value of the wrong type (``null``, a list) raises TypeError
    in its conversion, so that is a usage error too.
    """
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cfg(config: dict, dotted: str, default):
    node = config
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _parse_weights(text: str | None, config: dict) -> UtilityWeights:
    names = [f.name for f in fields(UtilityWeights)]
    if text:
        values = text.split(",")
        if len(values) != len(names):
            raise UsageError("--weights needs five comma-separated values")
    else:
        values = [_cfg(config, f"weights.{name}", getattr(DEFAULT_WEIGHTS, name)) for name in names]
    return _checked(lambda: UtilityWeights(*(float(v) for v in values)))


def _resolve_embedder_kind(flag_value: str | None, config: dict) -> str:
    if flag_value:
        return flag_value
    backend = _cfg(config, "index.backend", "memory")
    return {"memory": "hash", "remote": "remote"}.get(backend, "hash")


def _make_embedder(kind: str, dim: int, config: dict):
    if kind == "hash":
        return _checked(HashingEmbedder, dim=dim)
    if kind == "remote":
        url = _cfg(config, "index.remote.url", None)
        if not url:
            raise AdagateError("remote embedder requires index.remote.url in the config file")
        return RemoteEmbedder(
            url=url,
            dim=dim,
            key_env=_cfg(config, "index.remote.key_env", "ADAGATE_EMBED_KEY"),
            model=_cfg(config, "index.remote.model", "text-embedding-3-small"),
        )
    raise AdagateError(f"unknown embedder {kind!r}")


def _make_oracle(kind: str, config: dict, log_path: str | None):
    if kind == "rules":
        return RuleBasedOracle()
    if kind == "live":
        url = _cfg(config, "oracle.url", None)
        if not url:
            raise AdagateError("live oracle requires oracle.url in the config file")
        return LiveOracle(
            LiveOracleConfig(
                url=url,
                model=_cfg(config, "oracle.model", "gpt-4o-mini"),
                judge_model=_cfg(config, "oracle.judge_model", "gpt-4o"),
                key_env=_cfg(config, "oracle.key_env", "ADAGATE_ORACLE_KEY"),
                log_path=log_path,
            )
        )
    raise AdagateError(f"unknown oracle {kind!r}")


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_manifest(out_path: Path, config_snapshot: dict, seed: int, corpus_hash: str, namespace: str) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "corpus_sha256": corpus_hash,
        "namespace": namespace,
        "config": config_snapshot,
    }
    _atomic_write(Path(str(out_path) + MANIFEST_SUFFIX), json.dumps(manifest, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adagate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load examples and write chunk records")
    p_ingest.add_argument("--data", required=True, help="line-delimited examples file")
    p_ingest.add_argument("--out", required=True, help="output chunk file")
    p_ingest.add_argument("--limit", type=int, default=None)

    p_index = sub.add_parser("index", help="embed chunks and upsert into a snapshot namespace")
    p_index.add_argument("--chunks", required=True)
    p_index.add_argument("--store", required=True, help="index snapshot file (created if absent)")
    p_index.add_argument("--namespace", required=True)
    p_index.add_argument("--dim", type=int, default=None)
    p_index.add_argument("--embedder", choices=("hash", "remote"), default=None)
    p_index.add_argument("--config", default=None)

    p_perturb = sub.add_parser("perturb", help="build a noise or redundancy namespace")
    p_perturb.add_argument("--data", required=True)
    p_perturb.add_argument("--kind", choices=("noise", "redundancy"), required=True)
    p_perturb.add_argument("--rho", type=float, default=0.5)
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.add_argument("--cap", type=int, default=6, help="redundancy variants per gold")
    p_perturb.add_argument("--out", required=True, help="output chunk file")
    p_perturb.add_argument("--store", default=None, help="snapshot to upsert into")
    p_perturb.add_argument("--namespace", default=None, help="defaults to the kind")
    p_perturb.add_argument("--dim", type=int, default=None)
    p_perturb.add_argument("--config", default=None)

    p_run = sub.add_parser("run", help="run a controller over a namespace")
    p_run.add_argument("--data", required=True, help="examples file with questions and golds")
    p_run.add_argument("--store", required=True, help="index snapshot")
    p_run.add_argument("--namespace", default="clean")
    p_run.add_argument("--mode", choices=MODES, default="adagate")
    defaults = ControllerConfig  # a dataclass keeps each field's default as a class attribute
    p_run.add_argument("--L", dest="max_iterations", type=int, default=defaults.max_iterations, help="repair iterations")
    p_run.add_argument("--k", type=int, default=defaults.k, help="retrieval depth per query")
    p_run.add_argument(
        "--budget", "--B", dest="budget", type=int, default=None, help=f"token budget (default {defaults.budget})"
    )
    p_run.add_argument("--buffer", type=int, default=None, help=f"capacity buffer (default {defaults.buffer})")
    p_run.add_argument("--weights", default=None, help="five comma-separated lambda values")
    p_run.add_argument("--oracle", choices=("rules", "live"), default="rules")
    p_run.add_argument("--embedder", choices=("hash", "remote"), default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads; they speed up only I/O-bound runs (--oracle live or a remote embedder)",
    )
    p_run.add_argument("--limit", type=int, default=None)
    p_run.add_argument("--trace", choices=("summary", "full"), default="summary")
    p_run.add_argument("--log-oracle", dest="log_oracle", default=None)
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="aggregate results into a table and CSV")
    p_report.add_argument("--in", dest="inputs", required=True, nargs="+")
    p_report.add_argument("--out", default=None, help="CSV output path")
    p_report.add_argument("--force", action="store_true", help="accept results lacking a manifest")

    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    examples = load_examples(args.data, limit=args.limit)
    chunks = chunk_corpus(examples)
    n = write_chunks(args.out, chunks)
    print(f"ingested {len(examples)} examples -> {n} chunks -> {args.out}")
    return 0


def _open_store(store: str, dim: int | None, embedder_kind: str, config: dict) -> VectorIndex:
    path = Path(store)
    if path.exists():
        embedder = None
        if embedder_kind == "remote":
            with path.open("r", encoding="utf-8") as handle:
                dim, _ = read_snapshot_header(handle)
            embedder = _make_embedder("remote", dim, config)
        return VectorIndex.load(path, embedder=embedder)
    resolved_dim = dim if dim is not None else _checked(int, _cfg(config, "index.dim", 256))
    return VectorIndex(_make_embedder(embedder_kind, resolved_dim, config))


def _cmd_index(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    kind = _resolve_embedder_kind(args.embedder, config)
    index = _open_store(args.store, args.dim, kind, config)
    chunks = read_chunks(args.chunks)
    n = index.upsert(args.namespace, chunks)
    index.save(args.store)
    print(f"upserted {n} chunks into namespace {args.namespace!r} -> {args.store}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    examples = load_examples(args.data)
    chunks = chunk_corpus(examples)
    perturb_config = _checked(PerturbConfig, kind=args.kind, rho=args.rho, seed=args.seed, variant_cap=args.cap)
    if args.kind == KIND_NOISE:
        perturbed = inject_noise(examples, chunks, perturb_config)
    else:
        perturbed = inject_redundancy(examples, chunks, perturb_config)
    write_chunks(args.out, perturbed)
    namespace = args.namespace or args.kind
    if args.store:
        index = _open_store(args.store, args.dim, _resolve_embedder_kind(None, config), config)
        index.upsert(namespace, perturbed)
        index.save(args.store)
        print(f"perturbed {len(chunks)} -> {len(perturbed)} chunks; indexed namespace {namespace!r}")
    else:
        print(f"perturbed {len(chunks)} -> {len(perturbed)} chunks -> {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    defaults = ControllerConfig
    controller_config = _checked(
        lambda: ControllerConfig(
            mode=args.mode,
            max_iterations=args.max_iterations,
            k=args.k,
            budget=args.budget if args.budget is not None else int(_cfg(config, "controller.budget", defaults.budget)),
            buffer=args.buffer if args.buffer is not None else int(_cfg(config, "controller.buffer", defaults.buffer)),
            weights=_parse_weights(args.weights, config),
            namespace=args.namespace,
            adaptive_pool=int(_cfg(config, "adaptive_k.pool", defaults.adaptive_pool)),
            dedup_threshold=float(_cfg(config, "controller.dedup_threshold", defaults.dedup_threshold)),
        )
    )
    index = _open_store(args.store, None, _resolve_embedder_kind(args.embedder, config), config)
    examples = load_examples(args.data, limit=args.limit)

    def process(example):
        oracle = _make_oracle(args.oracle, config, args.log_oracle)
        try:
            trace = run_example(example, controller_config, index, oracle)
            correct = oracle.judge_answer(example.question, example.gold_answer, trace.final_answer)
        except AdagateError as exc:
            return {"example_id": example.id, "error": str(exc)}
        precision, recall, f1 = evidence_prf(trace.final_titles, example.gold_titles)
        record = ExampleResult(
            example_id=example.id,
            condition=args.namespace,
            mode=args.mode,
            correct=correct,
            precision=precision,
            recall=recall,
            f1=f1,
            input_tokens=trace.input_tokens,
            docs_passed=trace.docs_passed,
            termination_reason=trace.termination_reason,
        ).to_record()
        record["answer"] = trace.final_answer
        record["gold_answer"] = example.gold_answer
        if args.trace == "full":
            record["trace"] = trace.as_dict(full=True)
        return record

    if args.jobs == 1:
        records = [process(example) for example in examples]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(process, examples))

    out_path = Path(args.out)
    _atomic_write(out_path, "".join(json.dumps(r) + "\n" for r in records))
    snapshot = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "func") and value is not None
    }
    snapshot["budget"] = controller_config.budget
    snapshot["buffer"] = controller_config.buffer
    snapshot["weights"] = list(astuple(controller_config.weights))
    _write_manifest(out_path, snapshot, args.seed, _sha256_file(args.data), args.namespace)

    failures = sum(1 for r in records if "error" in r)
    print(f"wrote {len(records)} records -> {args.out} ({failures} failed)")
    if failures:
        print(f"{failures} examples failed", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    for path in args.inputs:
        with Path(path).open("r", encoding="utf-8") as handle:
            has_records = any(line.strip() for line in handle)
        manifest = Path(str(path) + MANIFEST_SUFFIX)
        if has_records and not manifest.exists() and not args.force:
            raise AdagateError(
                f"{path} has no manifest ({manifest.name}); re-run or pass --force"
            )
    report = aggregate(read_results(args.inputs))
    print(render_table(report))
    if args.out:
        _atomic_write(Path(args.out), render_csv(report))
        print(f"csv -> {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "index": _cmd_index,
    "perturb": _cmd_perturb,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AdagateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
