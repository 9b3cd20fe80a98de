"""``python -m repro`` — the spec-driven command line.

Four subcommands ride the :class:`~repro.api.estimator.LDA` facade:

``train``
    Batch training (serial or parallel backend per the spec), optionally
    exporting a serving snapshot with the spec embedded::

        python -m repro train --synthetic --docs 200 --vocab-size 500 \\
            --topics 20 --iterations 30 --seed 0 --snapshot-out model.npz

        python -m repro train --preset nytimes_like --scale 0.1 \\
            --backend parallel --workers 4 --iterations 50 --seed 0 \\
            --checkpoint-dir ckpt --checkpoint-every 10

    and, to continue that run bit-exactly from its last checkpoint::

        python -m repro train --preset nytimes_like --scale 0.1 \\
            --backend parallel --iterations 50 --checkpoint-dir ckpt --resume

``stream``
    Replay any corpus source as a document stream through the online
    backend (sliding-window updates, registry publishes)::

        python -m repro stream --synthetic --docs 200 --vocab-size 500 \\
            --topics 20 --batch-docs 32 --window-docs 256 --decay 0.995 \\
            --registry-dir registry --seed 0

``serve``
    Answer θ queries from a saved model (or a persisted registry) through
    the micro-batching topic server, or — with ``--http`` — over the network
    through the `repro.service` shared-memory worker pool::

        python -m repro serve --model model.npz --input queries.txt
        python -m repro serve --model model.npz --http 127.0.0.1:8080 \\
            --http-workers 4

``eval``
    Held-out perplexity of a saved model on a corpus source or a document
    file::

        python -m repro eval --model model.npz --preset nytimes_like --scale 0.05

Every subcommand also accepts ``--spec spec.json``; explicit flags override
the file.  ``--spec-out`` writes the fully-resolved spec back out, so a flag
soup becomes a reviewable artifact.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence
if TYPE_CHECKING:  # heavy imports stay inside the subcommands at runtime
    from repro.corpus.corpus import Corpus
    from repro.obs import Telemetry


from repro.api.estimator import LDA, iter_token_batches
from repro.api.spec import ALGORITHMS, BACKEND_NAMES, ModelSpec
from repro.samplers.base import KERNELS

__all__ = ["build_parser", "build_spec", "corpus_from_args", "main"]


# --------------------------------------------------------------------- #
# Argument groups
# --------------------------------------------------------------------- #
def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.corpus.datasets import DATASET_PRESETS

    source = parser.add_argument_group("corpus source (choose one)")
    source.add_argument("--corpus", type=Path, help="UCI docword file (.txt or .gz)")
    source.add_argument("--vocab-file", type=Path, help="UCI vocab file for --corpus")
    source.add_argument(
        "--corpus-store",
        type=Path,
        metavar="DIR",
        help="on-disk corpus store directory (repro.corpus.store): opened "
        "memory-mapped, so the corpus never fully materialises in RAM",
    )
    source.add_argument(
        "--preset",
        choices=sorted(DATASET_PRESETS),
        help="synthetic preset calibrated to the paper's Table 3",
    )
    source.add_argument("--scale", type=float, default=0.1, help="preset scale factor")
    source.add_argument(
        "--synthetic", action="store_true", help="ad-hoc LDA-generative corpus"
    )
    source.add_argument("--docs", type=int, default=200, help="synthetic documents")
    source.add_argument("--vocab-size", type=int, default=500, help="synthetic vocabulary")
    source.add_argument(
        "--doc-length", type=int, default=100, help="synthetic mean document length"
    )
    source.add_argument(
        "--corpus-seed", type=int, default=0, help="seed of the synthetic generator"
    )


def corpus_from_args(args: argparse.Namespace) -> "Corpus":
    """Load or generate the corpus selected by the parsed arguments."""
    from repro.corpus.datasets import load_preset
    from repro.corpus.synthetic import SyntheticCorpusSpec, generate_lda_corpus
    from repro.corpus.uci import read_uci_bow

    corpus_store = getattr(args, "corpus_store", None)
    chosen = sum(
        1
        for flag in (
            args.corpus is not None,
            corpus_store is not None,
            args.preset is not None,
            args.synthetic,
        )
        if flag
    )
    if chosen != 1:
        raise SystemExit(
            "choose exactly one corpus source: --corpus, --corpus-store, "
            "--preset or --synthetic"
        )
    if corpus_store is not None:
        from repro.corpus.store import open_store

        return open_store(corpus_store)
    if args.corpus is not None:
        return read_uci_bow(args.corpus, vocab_path=args.vocab_file)
    if args.preset is not None:
        return load_preset(args.preset, scale=args.scale, seed=args.corpus_seed)
    spec = SyntheticCorpusSpec(
        num_documents=args.docs,
        vocabulary_size=args.vocab_size,
        mean_document_length=args.doc_length,
    )
    return generate_lda_corpus(spec, seed=args.corpus_seed)


#: Spec flags: ``(argparse dest, ModelSpec field)``.
_SPEC_FIELD_FLAGS = (
    ("algorithm", "algorithm"),
    ("topics", "num_topics"),
    ("alpha", "alpha"),
    ("beta", "beta"),
    ("mh_steps", "num_mh_steps"),
    ("kernel", "kernel"),
    ("threads", "threads"),
    ("seed", "seed"),
    ("telemetry", "telemetry"),
)

#: Backend-option flags: ``(argparse dest, backend, option key)``.
_SPEC_OPTION_FLAGS = (
    ("workers", "parallel", "num_workers"),
    ("iters_per_epoch", "parallel", "iterations_per_epoch"),
    ("parallel_backend", "parallel", "backend"),
    ("window_docs", "online", "window_docs"),
    ("sweeps_per_batch", "online", "sweeps_per_batch"),
    ("decay", "online", "decay"),
    ("publish_every", "online", "publish_every"),
    ("batch_docs", "online", "batch_docs"),
)


def _add_spec_arguments(
    parser: argparse.ArgumentParser, fixed_backend: Optional[str] = None
) -> None:
    """Model-spec flags; every default is ``None`` so a spec file wins."""
    model = parser.add_argument_group("model spec (flags override --spec)")
    model.add_argument("--spec", type=Path, help="ModelSpec JSON file to start from")
    model.add_argument(
        "--spec-out", type=Path, help="write the fully-resolved spec here"
    )
    model.add_argument("--algorithm", choices=ALGORITHMS)
    model.add_argument("--topics", type=int, help="number of topics K")
    model.add_argument("--alpha", type=float, help="doc Dirichlet (default 50/K)")
    model.add_argument("--beta", type=float, help="word Dirichlet (default 0.01)")
    model.add_argument("--mh-steps", type=int, help="MH proposals per token")
    model.add_argument("--kernel", choices=KERNELS)
    model.add_argument(
        "--threads",
        type=int,
        help="kernel worker threads (default 1); "
        "results are bit-identical for any value",
    )
    model.add_argument("--seed", type=int, help="master seed")
    model.add_argument(
        "--telemetry",
        type=str,
        metavar="PATH",
        help="write a repro.obs JSONL trace here (metrics digest lands "
        "next to it as PATH-with-.metrics.json)",
    )
    if fixed_backend is None:
        model.add_argument(
            "--backend",
            choices=BACKEND_NAMES,
            help="execution backend (default: the spec's, else serial)",
        )
        model.add_argument("--workers", type=int, help="[parallel] worker processes")
        model.add_argument(
            "--iters-per-epoch", type=int, help="[parallel] sweeps between barriers"
        )
        model.add_argument(
            "--parallel-backend",
            choices=("process", "inline"),
            help="[parallel] process workers or deterministic in-process run",
        )
    if fixed_backend in (None, "online"):
        model.add_argument(
            "--window-docs", type=int, help="[online] sliding-window size in documents"
        )
        model.add_argument(
            "--sweeps-per-batch", type=int, help="[online] Gibbs sweeps per mini-batch"
        )
        model.add_argument(
            "--decay", type=float, help="[online] retired-count decay per batch"
        )
        model.add_argument(
            "--publish-every", type=int, help="[online] batches between publishes"
        )
        model.add_argument(
            "--batch-docs", type=int, help="[online] documents per mini-batch"
        )


def build_spec(
    args: argparse.Namespace, fixed_backend: Optional[str] = None
) -> ModelSpec:
    """Resolve ``--spec`` plus explicit flags into one validated ModelSpec
    (an invalid one, from the file or the flags, exits with its reason)."""
    try:
        data: Dict[str, Any] = {}
        if args.spec is not None:
            data = ModelSpec.load(args.spec).to_dict()
        for dest, field in _SPEC_FIELD_FLAGS:
            value = getattr(args, dest, None)
            if value is not None:
                data[field] = value

        file_backend = data.get("backend", "serial")
        backend = fixed_backend or getattr(args, "backend", None) or file_backend
        options = (
            dict(data.get("backend_options", {})) if backend == file_backend else {}
        )
        for dest, option_backend, key in _SPEC_OPTION_FLAGS:
            value = getattr(args, dest, None)
            if value is None:
                continue
            if option_backend != backend:
                raise SystemExit(
                    f"--{dest.replace('_', '-')} applies to the {option_backend!r} "
                    f"backend, but this run uses {backend!r}"
                )
            options[key] = value
        data["backend"] = backend
        data["backend_options"] = options
        spec = ModelSpec.from_dict(data)
    except ValueError as exc:
        raise SystemExit(f"invalid model spec: {exc}") from None
    if args.spec_out is not None:
        spec.save(args.spec_out)
        print(f"resolved spec written to {args.spec_out}")
    return spec


def _print_run_report(model: LDA) -> None:
    """Render the human-readable telemetry digest of a facade-driven run."""
    session = model.telemetry
    if session is None:
        return
    from repro.obs import render_report

    print(render_report(session.registry))
    print(
        f"telemetry trace {session.trace_path}  "
        f"metrics {session.metrics_path} (written on close)"
    )


@contextmanager
def _serving_telemetry(path: Optional[Path]) -> Iterator[Optional["Telemetry"]]:
    """Scoped telemetry for the model-loading subcommands (serve / eval),
    whose models carry no spec telemetry; prints the report on exit."""
    if path is None:
        yield None
        return
    from repro.obs import Telemetry, render_report, use_telemetry

    trace = Path(path)
    session = Telemetry(trace, metrics_path=trace.with_suffix(".metrics.json"))
    try:
        with use_telemetry(session):
            yield session
    finally:
        session.close()
        print(render_report(session.registry))
        print(f"telemetry trace {trace}  metrics {session.metrics_path}")


def _read_documents(path: Path) -> List[List[str]]:
    """One whitespace-tokenized document per non-empty line."""
    documents = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    return [doc for doc in documents if doc]


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def _warn_ignored_resume_flags(args: argparse.Namespace, effective: ModelSpec) -> None:
    """Warn about explicit flags the resumed checkpoint's configuration overrides."""
    requested = [
        (dest, getattr(effective, field))
        for dest, field in _SPEC_FIELD_FLAGS
        if dest != "seed"
    ] + [
        (dest, effective.backend_options.get(key))
        for dest, backend, key in _SPEC_OPTION_FLAGS
        if backend == "parallel"
    ]
    for dest, trained_with in requested:
        value = getattr(args, dest)
        if value is not None and value != trained_with:
            print(
                f"warning: --{dest.replace('_', '-')} {value} ignored on "
                f"resume; the checkpoint was trained with {trained_with}"
            )
    if args.seed is not None:
        print(
            "warning: --seed ignored on resume; the checkpoint continues its "
            "saved RNG streams"
        )


def _cmd_train(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    if spec.backend == "online":
        raise SystemExit(
            "backend='online' trains through `python -m repro stream`"
        )
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.checkpoint_dir is not None and spec.backend != "parallel":
        raise SystemExit(
            f"--checkpoint-dir applies to the 'parallel' backend, but this "
            f"run uses {spec.backend!r}"
        )
    corpus = corpus_from_args(args)
    print(
        f"corpus: {corpus.num_documents} documents, {corpus.num_tokens} tokens, "
        f"vocabulary {corpus.vocabulary_size}"
    )
    started = time.perf_counter()
    with LDA(spec) as model:
        if args.resume:
            model.fit(
                corpus, num_iterations=0, checkpoint_dir=args.checkpoint_dir, resume=True
            )
            spec = model.spec  # the checkpoint's configuration won
            print(
                f"resumed {spec.algorithm} from {args.checkpoint_dir} at "
                f"epoch {model.model.epochs_completed}"
            )
            _warn_ignored_resume_flags(args, spec)
        unit = "epochs" if spec.backend == "parallel" else "iterations"
        print(
            f"training {spec.algorithm} (K={spec.num_topics}, backend={spec.backend}) "
            f"for {args.iterations} {unit}"
        )
        model.fit(
            corpus,
            num_iterations=args.iterations,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
        if args.checkpoint_dir is not None and args.iterations > 0:
            print(f"checkpoint written to {args.checkpoint_dir}")
        elapsed = time.perf_counter() - started
        engine = model.model
        print(
            f"log_likelihood {engine.log_likelihood():.1f}  "
            f"elapsed {elapsed:.2f}s"
        )
        for index, topic in enumerate(model.top_topics(args.top_words)):
            rendered = " ".join(word for word, _ in topic)
            print(f"topic {index:3d}  {rendered}")
        if args.snapshot_out is not None:
            written = model.save(args.snapshot_out)
            print(f"serving snapshot written to {written}")
        _print_run_report(model)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    spec = build_spec(args, fixed_backend="online")
    corpus = corpus_from_args(args)
    print(
        f"corpus: {corpus.num_documents} documents, {corpus.num_tokens} tokens, "
        f"vocabulary {corpus.vocabulary_size} (replayed as a stream)"
    )
    started = time.perf_counter()
    model = LDA(spec)
    if args.registry_dir is not None:
        from repro.streaming.registry import ModelRegistry

        model.use_registry(ModelRegistry(directory=args.registry_dir))
    for batch in iter_token_batches(corpus, model.batch_docs):
        report = model.partial_fit(batch)
        update = report.update
        published = (
            f"published v{report.published.version}" if report.published else "-"
        )
        print(
            f"batch {update.batch_index:4d}  docs {update.documents_added:4d}  "
            f"window {update.window_documents:5d}  V {update.vocabulary_size:6d}  "
            f"{published}  {update.train_seconds * 1e3:7.1f} ms"
        )
    elapsed = time.perf_counter() - started
    trainer = model.model
    docs_per_s = trainer.documents_ingested / elapsed if elapsed > 0 else 0.0
    print(
        f"ingested {trainer.documents_ingested} documents / "
        f"{trainer.tokens_ingested} tokens in {elapsed:.2f}s "
        f"({docs_per_s:.1f} docs/s)"
    )
    registry = model.registry
    if registry.current_version is None:
        print("no version published before the stream ended")
    else:
        print(
            f"registry versions {registry.versions()} "
            f"(current v{registry.current_version})"
        )
    if args.registry_dir is not None:
        print(f"registry persisted to {args.registry_dir}")
    if args.snapshot_out is not None:
        written = model.save(args.snapshot_out)
        print(f"serving snapshot written to {written}")
    _print_run_report(model)
    model.close()
    return 0


def _load_model(args: argparse.Namespace) -> LDA:
    if (args.model is None) == (getattr(args, "registry_dir", None) is None):
        raise SystemExit("pass exactly one of --model or --registry-dir")
    if args.model is not None:
        return LDA.load(args.model)
    from repro.streaming.registry import ModelRegistry

    registry = ModelRegistry.open(args.registry_dir)
    entry = registry.current()
    if entry is None:
        raise SystemExit(f"registry {args.registry_dir} has no published version")
    try:
        return LDA.from_snapshot(entry.snapshot)
    except ValueError:
        # Registry versions published outside repro.api carry no spec.
        return LDA.from_snapshot(entry.snapshot, spec=ModelSpec(
            num_topics=entry.snapshot.num_topics
        ))


def _serve_http(args: argparse.Namespace) -> int:
    """``serve --http``: network serving through `repro.service`."""
    from repro.service import ServiceConfig, TopicService, parse_http_address

    if (args.model is None) == (getattr(args, "registry_dir", None) is None):
        raise SystemExit("pass exactly one of --model or --registry-dir")
    host, port = parse_http_address(args.http)
    snapshot = None
    registry = None
    if args.model is not None:
        from repro.serving.snapshot import ModelSnapshot

        snapshot = ModelSnapshot.load(args.model)
    else:
        from repro.streaming.registry import ModelRegistry

        registry = ModelRegistry.open(args.registry_dir)
        if registry.current() is None:
            raise SystemExit(
                f"registry {args.registry_dir} has no published version"
            )
    config = ServiceConfig(
        host=host,
        port=port,
        num_workers=args.http_workers,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else 0,
        max_batch_size=args.max_batch_size,
    )
    with _serving_telemetry(args.telemetry) as session:
        service = TopicService(
            snapshot=snapshot, registry=registry, config=config, telemetry=session
        )
        service.start()
        try:
            described = service._snapshot
            print(
                f"serving K={described.num_topics} V={described.vocabulary_size} "
                f"on {service.url} ({config.num_workers} workers, "
                f"max_pending={config.max_pending})",
                flush=True,
            )
            print(
                "endpoints: POST /infer  GET /top-topics /healthz /stats /metrics",
                flush=True,
            )
            service.serve_forever()
        finally:
            service.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        return _serve_http(args)
    model = _load_model(args)
    snapshot = model.export_snapshot()
    print(
        f"serving {snapshot.metadata.get('sampler', model.spec.algorithm)} "
        f"(K={snapshot.num_topics}, V={snapshot.vocabulary_size})"
    )
    server = model.serve(
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else 0,
        max_batch_size=args.max_batch_size,
    )
    if args.input is None:
        for index, topic in enumerate(model.top_topics(args.top_words)):
            rendered = " ".join(word for word, _ in topic)
            print(f"topic {index:3d}  {rendered}")
        print("pass --input FILE (one document per line) to answer queries")
        return 0
    documents = _read_documents(args.input)
    with _serving_telemetry(args.telemetry):
        theta = server.infer_batch(documents)
    for row, document in zip(theta, documents):
        top = int(row.argmax())
        preview = " ".join(document[:6])
        print(f"doc[{preview}...]  top topic {top}  p={row[top]:.3f}")
    print(server.stats().summary())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _load_model(args)
    if args.input is not None:
        documents = _read_documents(args.input)
    else:
        corpus = corpus_from_args(args)
        # Re-express the corpus as raw tokens so the snapshot vocabulary does
        # the id mapping (and OOV dropping) — the corpus's own ids need not
        # line up with the model's.
        vocabulary = corpus.vocabulary
        documents = [
            [vocabulary.word(w) for w in corpus.document_words(d)]
            for d in range(corpus.num_documents)
        ]
    with _serving_telemetry(args.telemetry):
        perplexity = model.perplexity(documents)
    print(f"documents {len(documents)}  held-out perplexity {perplexity:.2f}")
    for index, topic in enumerate(model.top_topics(args.top_words)):
        rendered = " ".join(word for word, _ in topic)
        print(f"topic {index:3d}  {rendered}")
    return 0


# --------------------------------------------------------------------- #
# Parser / entry point
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Spec-driven LDA: train, stream, serve and evaluate "
        "through the repro.api facade.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="batch training (serial or parallel backend)"
    )
    _add_corpus_arguments(train)
    _add_spec_arguments(train)
    train.add_argument(
        "--iterations", type=int, default=10, help="sweeps (serial) / epochs (parallel)"
    )
    train.add_argument("--top-words", type=int, default=8, help="words shown per topic")
    train.add_argument(
        "--snapshot-out", type=Path, help="write the serving snapshot here"
    )
    train.add_argument(
        "--checkpoint-dir", type=Path, help="[parallel] checkpoint directory"
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="[parallel] epochs between checkpoints (0 = final only)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="[parallel] resume from --checkpoint-dir instead of starting fresh",
    )
    train.set_defaults(func=_cmd_train)

    stream = commands.add_parser(
        "stream", help="replay a corpus as a stream (online backend)"
    )
    _add_corpus_arguments(stream)
    _add_spec_arguments(stream, fixed_backend="online")
    stream.add_argument(
        "--registry-dir", type=Path, help="persist published versions here"
    )
    stream.add_argument(
        "--snapshot-out", type=Path, help="write the final serving snapshot here"
    )
    stream.set_defaults(func=_cmd_stream)

    serve = commands.add_parser("serve", help="serve θ queries from a saved model")
    serve.add_argument("--model", type=Path, help="snapshot written by train/stream")
    serve.add_argument(
        "--registry-dir", type=Path, help="serve a persisted registry's current version"
    )
    serve.add_argument(
        "--input", type=Path, help="query documents, one whitespace-tokenized per line"
    )
    serve.add_argument("--strategy", choices=("em", "mh"), default="em")
    serve.add_argument("--seed", type=int, help="seed for --strategy mh")
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument("--top-words", type=int, default=8)
    serve.add_argument(
        "--http", metavar="HOST:PORT",
        help="serve over HTTP through the repro.service worker pool "
             "(e.g. 127.0.0.1:8080; port 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--http-workers", type=int, default=2, metavar="N",
        help="[--http] worker processes sharing one snapshot copy",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="[--http] admission-control bound; excess load is shed with 503",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="[--http] per-request timeout before a 504 answer",
    )
    serve.add_argument(
        "--telemetry", type=Path, metavar="PATH",
        help="write a repro.obs JSONL trace of the serving calls here",
    )
    serve.set_defaults(func=_cmd_serve)

    evaluate = commands.add_parser(
        "eval", help="held-out perplexity of a saved model"
    )
    evaluate.add_argument("--model", type=Path, help="snapshot written by train/stream")
    evaluate.add_argument(
        "--registry-dir", type=Path, help="evaluate a persisted registry's current version"
    )
    evaluate.add_argument(
        "--input", type=Path, help="documents, one whitespace-tokenized per line"
    )
    evaluate.add_argument("--top-words", type=int, default=8)
    evaluate.add_argument(
        "--telemetry", type=Path, metavar="PATH",
        help="write a repro.obs JSONL trace of the evaluation here",
    )
    _add_corpus_arguments(evaluate)
    evaluate.set_defaults(func=_cmd_eval)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via repro.__main__
    sys.exit(main())
