"""Baseline LDA samplers.

These are the algorithms the paper analyses and compares against (Table 2):

* :class:`~repro.samplers.cgs.CollapsedGibbsSampler` — plain collapsed Gibbs
  sampling, O(K) per token (Griffiths & Steyvers 2004); the exact sequential
  scan, and the reference conditional the tests hold the others to.
* :class:`~repro.samplers.sparselda.SparseLDASampler` — the three-bucket
  sparsity-aware decomposition of Yao et al. (KDD 2009).
* :class:`~repro.samplers.aliaslda.AliasLDASampler` — sparse document part plus
  a stale alias-table word proposal with MH correction (Li et al., KDD 2014).
* :class:`~repro.samplers.fpluslda.FPlusLDASampler` — word-by-word exact
  sampling with an F+ tree (Yu et al., WWW 2015).
* :class:`~repro.samplers.lightlda.LightLDASampler` — O(1) cycle
  Metropolis-Hastings proposals (Yuan et al., WWW 2015).

All of them derive from :class:`~repro.samplers.base.LDASampler` (count
matrices in a :class:`~repro.samplers.base.TopicState`), and it, like
:class:`repro.core.warplda.WarpLDA`, from the one
:class:`~repro.samplers.base.Sampler` base — so every sampler steps, reports
and takes frozen external counts the same way, and the trainers, the
benchmarks and the example applications never tell them apart.
"""

from repro.samplers.aliaslda import AliasLDASampler
from repro.samplers.base import LDASampler, Sampler, TopicState
from repro.samplers.cgs import CollapsedGibbsSampler
from repro.samplers.fpluslda import FPlusLDASampler
from repro.samplers.lightlda import LightLDASampler
from repro.samplers.sparselda import SparseLDASampler

__all__ = [
    "AliasLDASampler",
    "CollapsedGibbsSampler",
    "FPlusLDASampler",
    "LDASampler",
    "LightLDASampler",
    "Sampler",
    "SparseLDASampler",
    "TopicState",
]
