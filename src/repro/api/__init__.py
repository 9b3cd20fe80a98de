"""The declarative front door: ``ModelSpec`` → ``LDA``.

One spec describes the model (algorithm, kernel, hyper-parameters, backend,
seed); one estimator runs it:

>>> from repro.api import LDA, ModelSpec
>>> spec = ModelSpec(num_topics=20, algorithm="warplda", seed=0)
>>> model = LDA(spec)                      # doctest: +SKIP
>>> model.fit(corpus)                      # doctest: +SKIP
>>> model.save("model.npz")                # doctest: +SKIP
>>> LDA.load("model.npz").transform(docs)  # doctest: +SKIP

:func:`build_engine` passes the spec's values, as keywords, to the existing
layers: ``serial`` builds a sampler directly, ``parallel`` a
:class:`~repro.training.parallel.ParallelTrainer`, ``online`` an
:class:`~repro.streaming.online.OnlineTrainer` (which ``LDA`` runs behind a
:class:`~repro.streaming.pipeline.StreamingPipeline`) — all seeded from the
spec, bit-identical to direct construction.  The command line rides the same
path: ``python -m repro {train,stream,serve,eval}``.
"""

from repro.api.estimator import LDA, build_engine
from repro.api.spec import ALGORITHMS, BACKEND_NAMES, SPEC_METADATA_KEY, ModelSpec

__all__ = [
    "ALGORITHMS",
    "BACKEND_NAMES",
    "LDA",
    "ModelSpec",
    "SPEC_METADATA_KEY",
    "build_engine",
]
