"""WarpLDA reproduction library.

This package reproduces the system described in *WarpLDA: a Cache Efficient
O(1) Algorithm for Latent Dirichlet Allocation* (Chen et al., VLDB 2016) and
grows it into a small topic-modeling system with one front door:

>>> from repro import LDA
>>> model = LDA(num_topics=20, algorithm="warplda", seed=0)  # doctest: +SKIP
>>> model.fit(corpus).save("model.npz")                      # doctest: +SKIP
>>> theta = LDA.load("model.npz").transform(documents)       # doctest: +SKIP

:class:`~repro.api.LDA` wraps a declarative
:class:`~repro.api.ModelSpec` — algorithm, kernel, hyper-parameters,
execution backend (``serial`` / ``parallel`` / ``online``) and seed — and
dispatches ``fit`` / ``partial_fit`` / ``transform`` / ``top_topics`` /
``perplexity`` / ``save`` / ``load`` / ``serve`` to the layers below.  The
same surface drives the command line: ``python -m repro
{train,stream,serve,eval}``.

Subpackages
-----------
``repro.api``
    The declarative front door: ``ModelSpec`` and the ``LDA`` estimator
    facade that builds every engine from it.
``repro.sampling``
    Low-level sampling primitives: alias tables, F+ trees, discrete and
    Metropolis-Hastings samplers.
``repro.corpus``
    Corpus substrate: vocabulary, documents, the UCI bag-of-words format,
    synthetic corpus generators and dataset presets.
``repro.samplers``
    Baseline LDA samplers: collapsed Gibbs, SparseLDA, AliasLDA, F+LDA and
    LightLDA — plus the one validator of a run's options
    (``repro.samplers.base``) and the name registry / ``build_sampler``
    factory every backend constructs through (``repro.samplers.registry``).
``repro.kernels``
    Vectorized sampling kernels: bucketed slab execution of the sampler hot
    paths plus the batched draw and proposal primitives they share.
``repro.core``
    The paper's contribution: the WarpLDA MCEM sampler and its ablation
    variants.
``repro.evaluation``
    Log joint likelihood, perplexity, coherence and convergence tracking.
``repro.cache``
    A memory-hierarchy simulator and memory-access analysis used to reproduce
    the paper's cache-locality results.
``repro.distributed``
    The word-partitioning strategies and imbalance index of Fig. 4.
``repro.report``
    Helpers shared by the benchmark harness for formatting tables and series.
``repro.serving``
    The model-serving layer: immutable snapshots, batched unseen-document
    inference and a micro-batching topic server.
``repro.service``
    The network serving tier: a stdlib-asyncio HTTP front end routing into a
    pool of worker processes that share one snapshot copy via
    ``multiprocessing.shared_memory``, with admission control, request
    timeouts and registry hot-swap broadcast (``python -m repro serve
    --http HOST:PORT``).
``repro.training``
    Multiprocess data-parallel training: document sharding, epoch-barrier
    count merging and resumable checkpoints (spec backend ``parallel``).
``repro.streaming``
    Streaming ingestion and online training: mini-batch document streams,
    sliding-window updates with count decay, a versioned model registry and
    hot-swap serving (spec backend ``online``).
``repro.analysis``
    The project's AST-based invariant linter: RNG discipline, telemetry
    purity, kernel purity, lock discipline, pickling safety and API
    hygiene (``python -m repro.analysis src/``).

Importing ``repro`` is deliberately light: the top-level names below are
resolved lazily (PEP 562), so ``import repro`` pulls in neither
``multiprocessing`` nor the serving/streaming stacks until something
actually uses them.
"""

from importlib import import_module

#: Top-level name → defining module, resolved on first attribute access.
_EXPORTS = {
    "LDA": "repro.api",
    "ModelSpec": "repro.api",
    "WarpLDA": "repro.core.warplda",
    "Corpus": "repro.corpus.corpus",
    "Document": "repro.corpus.corpus",
    "Vocabulary": "repro.corpus.vocabulary",
    "InferenceEngine": "repro.serving",
    "ModelSnapshot": "repro.serving",
    "ServiceConfig": "repro.service",
    "TopicServer": "repro.serving",
    "TopicService": "repro.service",
    "DocumentStream": "repro.streaming",
    "ModelRegistry": "repro.streaming",
    "OnlineTrainer": "repro.streaming",
    "StreamingCorpus": "repro.streaming",
    "StreamingPipeline": "repro.streaming",
    "Checkpoint": "repro.training",
    "ParallelTrainer": "repro.training",
}

__all__ = sorted(_EXPORTS) + ["__version__"]

__version__ = "1.1.0"


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        # The eager __init__ used to bind every subpackage as an attribute
        # (a side effect of importing from them); keep `repro.serving`-style
        # access working by importing the submodule on demand.
        try:
            value = import_module(f"repro.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"repro.{name}":
                raise  # a genuinely missing dependency inside the submodule
            raise AttributeError(
                f"module 'repro' has no attribute {name!r}"
            ) from None
    else:
        value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
