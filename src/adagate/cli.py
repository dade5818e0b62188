"""Command-line entry point for reproducible batch experiments.

Subcommands: ``ingest`` (load and chunk a corpus file), ``index`` (embed and
upsert chunks into a namespace of an on-disk snapshot), ``perturb`` (build a
noise or redundancy namespace), ``run`` (execute a controller over a
namespace and write per-example results), and ``report`` (aggregate results
into a table/CSV). Offline mode (`--oracle rules --embedder hash`) touches
no network and is deterministic: the one random choice, ``perturb``'s, is
fixed by its ``--seed``.

Every ``run`` writes a manifest next to the results file; ``report``
refuses non-empty results lacking one unless ``--force``. Credentials are
only ever read from environment variables named in the config file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields
from pathlib import Path

from . import __version__
from .controller import MODES, ControllerConfig, run_example
from .corpus import chunk_corpus, load_examples, read_chunks, write_atomic, write_chunks, write_json_lines
from .errors import AdagateError
from .evaluate import ExampleResult, aggregate, evidence_prf, read_results, render_csv, render_table
from .index import DEFAULT_DIM, HashingEmbedder, RemoteEmbedder, VectorIndex
from .oracle import LiveOracle, RuleBasedOracle
from .perturb import KIND_NOISE, PerturbConfig, inject_noise, inject_redundancy
from .scoring import DEFAULT_WEIGHTS, UtilityWeights

MANIFEST_SCHEMA = "manifest@1"
MANIFEST_SUFFIX = ".manifest.json"
_DIM_HELP = f"for a new store (hash default 2**{DEFAULT_DIM.bit_length() - 1}; remote: required)"


class UsageError(Exception):
    """Invalid flag value or combination caught after parsing."""


def _checked(build, *args, **kwargs):
    """Build a parameter object, reporting a value it rejects as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# Every key the config file may hold: where the remote backends are and which
# credentials they use. A None leaf is a string; experiment settings are flags.
CONFIG_KEYS = {
    "index": {"remote": {"url": None, "key_env": None, "model": None}},
    "oracle": {"url": None, "model": None, "judge_model": None, "key_env": None},
}


def _check_config(node: dict, keys: dict, prefix: str = "") -> None:
    """Reject a key missing from ``keys``, a section that is not an object and a value that is not a string."""
    for key, value in node.items():
        name = prefix + key
        if key not in keys:
            raise UsageError(f"--config holds unknown key {name!r}")
        section = keys[key]
        if not isinstance(value, str if section is None else dict):
            kind = "a string" if section is None else "an object"
            raise UsageError(f"--config {name} must be {kind}, not {json.dumps(value)}")
        if section is not None:
            _check_config(value, section, name + ".")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except ValueError as exc:  # also undecodable bytes
            raise UsageError(f"--config {path} is not JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"--config {path} holds a JSON {type(config).__name__}, not an object")
    _check_config(config, CONFIG_KEYS)
    return config


def _parse_weights(text: str | None) -> UtilityWeights:
    if text is None:
        return DEFAULT_WEIGHTS
    values = text.split(",")
    if len(values) != len(fields(UtilityWeights)):
        raise UsageError("--weights needs five comma-separated values")
    return _checked(lambda: UtilityWeights(*map(float, values)))


def _make_embedder(kind: str, dim: int, config: dict):
    if kind == "hash":
        return _checked(HashingEmbedder, dim=dim)
    settings = config.get("index", {}).get("remote", {})
    if not settings.get("url"):
        raise AdagateError("remote embedder requires index.remote.url in the config file")
    return _checked(RemoteEmbedder, dim=dim, **settings)


def _make_oracle(kind: str, config: dict, log_path: str | None):
    if kind == "rules":
        return RuleBasedOracle()
    settings = config.get("oracle", {})
    if not settings.get("url"):
        raise AdagateError("live oracle requires oracle.url in the config file")
    return LiveOracle(log_path=log_path, **settings)


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_path: str, config_snapshot: dict, corpus_hash: str, namespace: str) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "corpus_sha256": corpus_hash,
        "namespace": namespace,
        "config": config_snapshot,
    }
    write_atomic(out_path + MANIFEST_SUFFIX, [json.dumps(manifest, indent=2) + "\n"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adagate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load examples and write chunk records")
    p_ingest.add_argument("--data", required=True, help="line-delimited examples file")
    p_ingest.add_argument("--out", required=True, help="output chunk file")
    p_ingest.add_argument("--limit", type=int, default=None, help="load only the first N examples")

    p_index = sub.add_parser("index", help="embed chunks and upsert into a snapshot namespace")
    p_index.add_argument("--chunks", required=True)
    p_index.add_argument("--store", required=True, help="index snapshot file (created if absent)")
    p_index.add_argument("--namespace", required=True)
    p_index.add_argument("--dim", type=int, default=None, help=_DIM_HELP)
    p_index.add_argument("--embedder", choices=("hash", "remote"), default=None, help="for a new store (default hash)")
    p_index.add_argument("--config", default=None, help="JSON file with the remote endpoints")

    p_perturb = sub.add_parser("perturb", help="build a noise or redundancy namespace")
    p_perturb.add_argument("--data", required=True)
    p_perturb.add_argument("--kind", choices=("noise", "redundancy"), required=True)
    p_perturb.add_argument("--rho", type=float, default=0.5)
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.add_argument("--out", required=True, help="output chunk file")
    p_perturb.add_argument("--store", default=None, help="snapshot to upsert into the namespace named by --kind")
    p_perturb.add_argument("--dim", type=int, default=None, help=_DIM_HELP)
    p_perturb.add_argument("--config", default=None, help="JSON file with the remote endpoints")

    p_run = sub.add_parser("run", help="run a controller over a namespace")
    p_run.add_argument("--data", required=True, help="examples file with questions and golds")
    p_run.add_argument("--store", required=True, help="index snapshot")
    defaults = ControllerConfig  # a dataclass keeps each field's default as a class attribute
    p_run.add_argument("--namespace", default=defaults.namespace)
    p_run.add_argument("--mode", choices=MODES, default=defaults.mode)
    p_run.add_argument("--L", dest="max_iterations", type=int, default=defaults.max_iterations, help="repair iterations")
    p_run.add_argument("--k", type=int, default=defaults.k, help="retrieval depth per query")
    p_run.add_argument(
        "--budget", "--B", dest="budget", type=int, default=defaults.budget, help="token budget (default %(default)s)"
    )
    p_run.add_argument("--buffer", type=int, default=defaults.buffer, help="capacity buffer (default %(default)s)")
    p_run.add_argument("--weights", default=None, help="five comma-separated lambda values")
    p_run.add_argument("--oracle", choices=("rules", "live"), default="rules")
    p_run.add_argument("--embedder", choices=("hash", "remote"), default=None, help="must match the store's")
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads; they speed up only I/O-bound runs (--oracle live or a remote embedder)",
    )
    p_run.add_argument("--limit", type=int, default=None, help="run only the first N examples")
    p_run.add_argument("--trace", choices=("summary", "full"), default="summary")
    p_run.add_argument("--log-oracle", dest="log_oracle", default=None)
    p_run.add_argument("--config", default=None, help="JSON file with the remote endpoints")
    p_run.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="aggregate results into a table and CSV")
    p_report.add_argument("--in", dest="inputs", required=True, nargs="+")
    p_report.add_argument("--out", default=None, help="CSV output path")
    p_report.add_argument("--force", action="store_true", help="accept results lacking a manifest")

    return parser


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 1:
        raise UsageError("--limit must be >= 1")


def _cmd_ingest(args: argparse.Namespace) -> int:
    _check_limit(args.limit)
    examples = load_examples(args.data, limit=args.limit)
    chunks = chunk_corpus(examples)
    write_chunks(args.out, chunks)
    print(f"ingested {len(examples)} examples -> {len(chunks)} chunks -> {args.out}")
    return 0


def _open_store(
    store: str, dim: int | None, embedder_kind: str | None, config: dict, namespace: str | None = None
) -> VectorIndex:
    """Load the snapshot at ``store``, or start an empty index from the flags when there is none.

    An existing store's header decides its dim and embedder, which the config
    only says how to reach; a flag that differs is a usage error, raised
    before any record is decoded. With ``namespace``, only that namespace is
    loaded, and a store without it is an error; a command that saves the
    store back loads all of it.
    """
    if not Path(store).exists():
        if embedder_kind == "remote" and dim is None:
            raise UsageError("a new remote store needs --dim, the size of the embedding service's vectors")
        return VectorIndex(_make_embedder(embedder_kind or "hash", DEFAULT_DIM if dim is None else dim, config))

    def embedder_for(stored_kind: str, stored_dim: int):
        for flag, given, stored in (("--dim", dim, stored_dim), ("--embedder", embedder_kind, stored_kind)):
            if given is not None and given != stored:
                raise UsageError(f"{flag} {given} does not match the {flag[2:]} {stored} of store {store}")
        return _make_embedder(stored_kind, stored_dim, config)

    return VectorIndex.load(store, namespace=namespace, embedder_for=embedder_for)


def _cmd_index(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    index = _open_store(args.store, args.dim, args.embedder, config)
    chunks = read_chunks(args.chunks)
    n = index.upsert(args.namespace, chunks)
    index.save(args.store)
    print(f"upserted {n} chunks into namespace {args.namespace!r} -> {args.store}")
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    for flag, value in (("--dim", args.dim), ("--config", args.config)):
        if value is not None and not args.store:
            raise UsageError(f"{flag} applies only to the --store that perturb upserts into")
    config = _load_config(args.config)
    examples = load_examples(args.data)
    chunks = chunk_corpus(examples)
    perturb_config = _checked(PerturbConfig, kind=args.kind, rho=args.rho, seed=args.seed)
    # The store is checked before --out is written.
    index = _open_store(args.store, args.dim, None, config) if args.store else None
    if args.kind == KIND_NOISE:
        perturbed = inject_noise(examples, chunks, perturb_config)
    else:
        perturbed = inject_redundancy(examples, chunks, perturb_config)
    write_chunks(args.out, perturbed)
    if index is not None:
        index.upsert(args.kind, perturbed)
        index.save(args.store)
        print(f"perturbed {len(chunks)} -> {len(perturbed)} chunks; indexed namespace {args.kind!r}")
    else:
        print(f"perturbed {len(chunks)} -> {len(perturbed)} chunks -> {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    _check_limit(args.limit)
    if args.log_oracle is not None and args.oracle != "live":
        raise UsageError("--log-oracle logs the requests of --oracle live only")
    controller_config = _checked(
        ControllerConfig,
        mode=args.mode,
        max_iterations=args.max_iterations,
        k=args.k,
        budget=args.budget,
        buffer=args.buffer,
        weights=_parse_weights(args.weights),
        namespace=args.namespace,
    )
    if not Path(args.store).exists():
        raise AdagateError(f"store {args.store} does not exist")
    index = _open_store(args.store, None, args.embedder, config, namespace=args.namespace)
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

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(process, examples))

    write_json_lines(args.out, records)
    snapshot = {
        key: value
        for key, value in vars(args).items()
        if key != "command" and value is not None
    }
    snapshot.update(vars(controller_config), weights=list(astuple(controller_config.weights)))
    snapshot.update(store_dim=index.embedder.dim, store_embedder=index.embedder.backend)
    _write_manifest(args.out, snapshot, _sha256_file(args.data), args.namespace)

    failures = sum(1 for r in records if "error" in r)
    print(f"wrote {len(records)} records -> {args.out} ({failures} failed)")
    if failures:
        print(f"{failures} examples failed", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    for path in args.inputs:
        # Undecodable bytes count as records here; read_results reports them.
        with Path(path).open("r", encoding="utf-8", errors="replace") as handle:
            has_records = any(line.strip() for line in handle)
        manifest = Path(str(path) + MANIFEST_SUFFIX)
        if has_records and not manifest.exists() and not args.force:
            raise AdagateError(
                f"{path} has no manifest ({manifest.name}); re-run or pass --force"
            )
    rows = aggregate(read_results(args.inputs))
    print(render_table(rows))
    if args.out:
        write_atomic(args.out, [render_csv(rows)])
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
