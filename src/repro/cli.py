"""Command-line interface.

Subcommands::

    python -m repro.cli build  --out model_dir [--persons 70 ...]
    python -m repro.cli ingest --out cache_dir [--workers 4] [--stats ...]
    python -m repro.cli query  --model model_dir "When was the club ... ?"
    python -m repro.cli query  --model model_dir --batch queries.txt
    python -m repro.cli eval   --model model_dir [--n 100]
    python -m repro.cli demo   "a sentence or two of text"   # OIE + Alg.1
    python -m repro.cli lint   [paths ...] [--format json] [--select IDS]
    python -m repro.cli serve  --listen HOST:PORT --workers N [--store DIR]

``build`` trains the full system on a freshly generated world and saves it
(plus the world seed, so ``query``/``eval`` can rebuild the same corpus).
``ingest`` runs the offline stage alone — parallel, incremental triple
extraction (optionally + encoding) into an on-disk artifact cache that
later runs refresh instead of rebuild. ``lint`` runs the repo's own
static analyzer (``repro.analysis``) and exits non-zero when any rule
fires. ``serve`` is the serving surface: an asyncio front door over N
worker processes (:mod:`repro.net`), each running the in-process
micro-batching :mod:`repro.serve` service, with crash recovery and hot
store reload; clients speak to it through :class:`repro.net.NetClient`.
Load is generated and measured in one place only,
``benchmarks/e2e/run.py`` — the CLI has no benchmark commands.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from repro.data.documents import build_corpus
from repro.data.hotpot import build_hotpot_dataset
from repro.data.world import World, WorldConfig
from repro.encoder.minibert import EncoderConfig
from repro.eval.metrics import RetrievalScorecard, path_exact_match
from repro.net import Fleet, WorkerSpec
from repro.net.bootstrap import (
    load_model_dir,
    model_dir_bundle,
    synthetic_bundle,
)
from repro.perf import COUNTERS
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.retriever.trainer import TrainerConfig
from repro.storage.atomic import atomic_write_json


def _world_config(args) -> WorldConfig:
    return WorldConfig(
        n_persons=args.persons,
        n_clubs=args.clubs,
        n_bands=args.bands,
        n_cities=args.cities,
        seed=args.seed,
    )


def cmd_build(args) -> int:
    world_config = _world_config(args)
    world = World(world_config)
    corpus = build_corpus(world)
    dataset_kwargs = {"comparison_per_kind": args.comparisons}
    dataset = build_hotpot_dataset(world, corpus, **dataset_kwargs)
    encoder_config = EncoderConfig(
        dim=args.dim, n_layers=1, n_heads=4, max_len=40, residual_scale=0.05
    )
    config = FrameworkConfig(
        encoder=encoder_config,
        retriever=TrainerConfig(epochs=args.epochs, lr=3e-4),
        verbose=True,
    )
    print(f"building: {len(corpus)} docs, {len(dataset.train)} train questions")
    system = TripleFactRetrieval(config).fit(corpus, dataset)
    out = Path(args.out)
    system.save(out)
    meta = {
        "world": world_config.__dict__,
        "dataset": dataset_kwargs,
        "encoder": encoder_config.__dict__,
    }
    atomic_write_json(out / "meta.json", meta)
    print(f"saved to {out}")
    return 0


def cmd_ingest(args) -> int:
    from repro.ingest import IngestPipeline

    world = World(_world_config(args))
    corpus = build_corpus(world)
    pipeline = IngestPipeline(
        corpus,
        workers=args.workers,
        incremental=not args.no_incremental,
    )
    encoder = None
    if args.encode:
        from repro.encoder.minibert import MiniBertEncoder
        from repro.text.tokenize import tokenize
        from repro.text.vocab import Vocab

        vocab = Vocab.from_texts([d.text for d in corpus], tokenize)
        encoder = MiniBertEncoder(
            vocab,
            EncoderConfig(
                dim=args.dim, n_layers=1, n_heads=4, max_len=40,
                residual_scale=0.05,
            ),
            precision=args.precision,
        )
    result = pipeline.run(Path(args.out), encoder=encoder)
    print(
        f"ingested {result.stats.docs_total} docs "
        f"({result.stats.triples_total} triples) into {args.out}"
    )
    if args.stats:
        print(result.stats.summary())
    return 0


def _read_query_file(path: Path):
    """Non-empty stripped lines of a query file (one question per line)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip()]


def cmd_query(args) -> int:
    if (args.question is None) == (args.batch is None):
        print(
            "error: provide exactly one of a question or --batch FILE",
            file=sys.stderr,
        )
        return 2
    system, _world, _corpus, _dataset = load_model_dir(args.model)
    COUNTERS.reset()
    if args.batch is not None:
        questions = _read_query_file(Path(args.batch))
        if not questions:
            print(f"error: no queries in {args.batch}", file=sys.stderr)
            return 2
        # one bulk retrieve_paths_batch call: encoding and both hops
        # amortize over the whole file instead of running per question
        path_lists = system.retrieve_paths_many(questions, k=args.k)
        for question, paths in zip(questions, path_lists):
            print(f"=== {question}")
            for path in paths:
                print(path.explain())
                print()
    else:
        for path in system.retrieve_paths(args.question, k=args.k):
            print(path.explain())
            print()
    if args.stats:
        print(COUNTERS.summary())
    return 0


def cmd_eval(args) -> int:
    system, _world, _corpus, dataset = load_model_dir(args.model)
    card = RetrievalScorecard()
    questions = dataset.test[: args.n]
    COUNTERS.reset()
    for question in questions:
        paths = system.retrieve_paths(question.text, k=8)
        card.add(
            question.qtype,
            path_exact_match([p.titles for p in paths], question.gold_titles),
        )
    print(f"questions: {len(questions)}")
    for qtype in sorted(card.hits):
        print(f"  {qtype}: PEM@8 = {card.rate(qtype):.3f}")
    print(f"  total: PEM@8 = {card.total:.3f}")
    if args.stats:
        print(COUNTERS.summary())
    return 0


def cmd_demo(args) -> int:
    from repro.oie.union import extract_union
    from repro.triples.construct import TripleSetConstructor

    union = extract_union(args.text)
    print(f"union extraction T_o ({len(union)} triples):")
    for triple in union:
        print(f"  {triple}")
    result = TripleSetConstructor().construct(union)
    print(f"\nconstructed T_d ({len(result.triples)} triples, "
          f"{result.removed_children} children removed, {result.fused} fused):")
    for triple in result.triples:
        print(f"  {triple}")
    return 0


def _split_rule_ids(raw: str):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def cmd_lint(args) -> int:
    from repro.analysis import (
        all_rule_ids,
        load_config,
        render_json,
        render_text,
        run_lint,
    )
    from repro.analysis.core import REGISTRY

    if args.list_rules:
        for rule_id in all_rule_ids():
            print(f"{rule_id}: {REGISTRY[rule_id].description}")
        return 0
    config = load_config(Path.cwd())
    paths = [Path(p) for p in (args.paths or config.paths)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        report = run_lint(
            paths,
            select=_split_rule_ids(args.select) if args.select else None,
            ignore=_split_rule_ids(args.ignore) if args.ignore else None,
            config=config,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(report))
    return 1 if report.findings else 0


def _parse_listen(value: str):
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"--listen expects HOST:PORT, got {value!r}"
        )
    return host, int(port)


def cmd_serve(args) -> int:
    if args.model is None and not args.synthetic:
        print(
            "error: provide --model DIR or --synthetic", file=sys.stderr
        )
        return 2
    if args.model is not None:
        factory = model_dir_bundle
        kwargs = {"model_dir": str(args.model)}
    else:
        factory = synthetic_bundle
        kwargs = {
            "seed": args.synthetic_seed,
            "n_docs": args.synthetic_docs,
            "encoder": args.synthetic_encoder,
            "multihop": not args.no_multihop,
        }
    spec = WorkerSpec(
        target=f"{factory.__module__}:{factory.__name__}",
        kwargs=kwargs,
        store_dir=str(args.store) if args.store else None,
        multihop=not args.no_multihop,
        shards=args.shards,
        shard_mode=args.shard_mode,
        service={
            "max_batch_size": args.batch_size,
            "max_wait_ms": args.wait_ms,
            "cache_size": args.cache_size,
        },
    )
    host, port = args.listen
    fleet = Fleet(
        spec,
        workers=args.workers,
        host=host,
        port=port,
        watch_store=args.watch_store,
    )
    stop = threading.Event()
    with fleet:
        bound_host, bound_port = fleet.address
        print(
            f"serving on {bound_host}:{bound_port} with {args.workers} "
            f"worker process(es)"
            + (f", watching {args.store} for new generations"
               if args.watch_store else "")
        )
        try:
            # --run-seconds bounds the lifetime (tests, smoke runs);
            # otherwise serve until interrupted
            stop.wait(args.run_seconds)
        except KeyboardInterrupt:
            print("shutting down")
    return 0


def _positive_int(value: str) -> int:
    number = int(value)  # argparse turns a ValueError into a usage error
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        )
    return number


def _add_world_flags(parser, dim_help=None) -> None:
    """The synthetic-world flags ``build`` and ``ingest`` share."""
    parser.add_argument("--persons", type=int, default=70)
    parser.add_argument("--clubs", type=int, default=20)
    parser.add_argument("--bands", type=int, default=20)
    parser.add_argument("--cities", type=int, default=25)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--dim", type=int, default=96, help=dim_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Triple-Fact Retriever CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="train and save a system")
    build.add_argument("--out", required=True)
    _add_world_flags(build)
    build.add_argument("--comparisons", type=int, default=15)
    build.add_argument("--epochs", type=int, default=2)
    build.set_defaults(func=cmd_build)

    ingest = sub.add_parser(
        "ingest",
        help="run the offline stage (parallel, incremental) into a cache",
    )
    ingest.add_argument("--out", required=True, help="artifact cache dir")
    _add_world_flags(
        ingest, dim_help="encoder dimension when --encode is given"
    )
    ingest.add_argument(
        "--workers", type=int, default=1,
        help="extraction worker processes (output is byte-identical "
        "regardless of worker count)",
    )
    ingest.add_argument(
        "--no-incremental", action="store_true",
        help="ignore prior artifacts and rebuild everything",
    )
    ingest.add_argument(
        "--encode", action="store_true",
        help="also encode triples into a persistent embedding store",
    )
    ingest.add_argument(
        "--precision", choices=("float32", "float64"), default=None,
        help="embedding store dtype when --encode is given "
        "(default: the float32 policy default)",
    )
    ingest.add_argument(
        "--stats", action="store_true",
        help="print per-stage ingest counters and timings",
    )
    ingest.set_defaults(func=cmd_ingest)

    query = sub.add_parser("query", help="ask a trained system a question")
    query.add_argument("--model", required=True)
    query.add_argument("--k", type=_positive_int, default=3)
    query.add_argument(
        "--stats", action="store_true",
        help="print retrieval perf counters (encodes, matmul time)",
    )
    query.add_argument(
        "--batch", default=None, metavar="FILE",
        help="file with one question per line; answered in one bulk "
        "retrieval call (mutually exclusive with a positional question)",
    )
    query.add_argument("question", nargs="?", default=None)
    query.set_defaults(func=cmd_query)

    evaluate = sub.add_parser("eval", help="evaluate path PEM@8 on the test set")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--n", type=_positive_int, default=100)
    evaluate.add_argument(
        "--stats", action="store_true",
        help="print retrieval perf counters (encodes, matmul time)",
    )
    evaluate.set_defaults(func=cmd_eval)

    demo = sub.add_parser("demo", help="run OIE + Algorithm 1 on raw text")
    demo.add_argument("text")
    demo.set_defaults(func=cmd_demo)

    lint = sub.add_parser(
        "lint", help="run the repo static analyzer (repro.analysis)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: [tool.repro.lint] paths)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(func=cmd_lint)

    serve = sub.add_parser(
        "serve",
        help="serve retrieval over TCP: asyncio front door + N worker "
        "processes with hot store reload",
    )
    serve.add_argument(
        "--listen", type=_parse_listen, default=("127.0.0.1", 7371),
        metavar="HOST:PORT",
        help="front-door bind address (port 0 picks a free port)",
    )
    serve.add_argument(
        "--model", default=None,
        help="trained model dir (repro build); omit for --synthetic",
    )
    serve.add_argument(
        "--synthetic", action="store_true",
        help="serve a deterministic synthetic bundle (no model needed)",
    )
    serve.add_argument("--synthetic-seed", type=int, default=29)
    serve.add_argument("--synthetic-docs", type=int, default=48)
    serve.add_argument(
        "--synthetic-encoder", choices=("dyadic", "minibert"),
        default="minibert",
        help="synthetic bundle encoder (dyadic = exact/cheap)",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="published artifact dir (the triple segment file store.json + "
        "embeddings/) to memmap-attach; workers warm-start with zero "
        "encoder calls and parse no triples until a query matches them",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes")
    serve.add_argument(
        "--no-multihop", action="store_true",
        help="serve single-hop only (skip the updater/multihop stack)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="build an N-shard plan inside each worker",
    )
    serve.add_argument(
        "--shard-mode", choices=("range", "centroid"), default="range",
    )
    serve.add_argument("--batch-size", type=int, default=16,
                       help="per-worker micro-batch flush size")
    serve.add_argument("--wait-ms", type=float, default=2.0,
                       help="per-worker micro-batch window (ms)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="per-worker result cache capacity (0 disables)")
    serve.add_argument(
        "--watch-store", action="store_true",
        help="poll --store for new generations and hot-roll the fleet "
        "automatically when `repro ingest` publishes one",
    )
    serve.add_argument(
        "--run-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit 0 (default: until Ctrl-C)",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
