"""The paper's contribution: the WarpLDA sampler and its ablation variants.

:class:`~repro.core.warplda.WarpLDA` implements the MCEM algorithm of Sec. 4
(Alg. 2): delayed count updates, an O(1) Metropolis-Hastings kernel per token,
and the reordered document / word phases that keep the randomly accessed
memory per document (or word) down to O(K).

:mod:`repro.core.variants` contains the Fig. 7 ablation chain — LightLDA with
progressively more of WarpLDA's ingredients (delayed word counts, delayed
document counts, the simplified word proposal).
"""

from repro.core.warplda import (
    WarpLDA,
    doc_proposal_acceptance,
    word_proposal_acceptance,
)
from repro.core.variants import AblationVariant, DelayedUpdateLightLDA, make_ablation_suite

__all__ = [
    "AblationVariant",
    "DelayedUpdateLightLDA",
    "WarpLDA",
    "doc_proposal_acceptance",
    "make_ablation_suite",
    "word_proposal_acceptance",
]
