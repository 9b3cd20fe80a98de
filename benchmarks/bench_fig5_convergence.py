"""Fig. 5: single-machine convergence of WarpLDA vs LightLDA vs F+LDA.

The paper's figure has five columns per dataset/K setting: log likelihood vs
iteration, log likelihood vs time, the iteration ratio and time ratio of each
baseline over WarpLDA to reach given likelihood levels, and throughput.  This
benchmark regenerates all five series on scaled NYTimes-like and PubMed-like
corpora.

Shapes to reproduce (paper Sec. 6.2):
* all samplers converge to roughly the same log likelihood;
* WarpLDA needs somewhat more iterations than the exact F+LDA but is far
  faster per unit wall-clock time than LightLDA (5-15x in the paper; the
  Python gap additionally reflects WarpLDA's vectorisation, which is the
  Python analogue of its cache friendliness / SIMD-readiness);
* WarpLDA's token throughput is the highest of the three.
"""

import pytest

from repro.core import WarpLDA
from repro.corpus import load_preset
from repro.evaluation import ConvergenceTracker, speedup_ratio
from repro.report import format_series, format_table
from repro.samplers import FPlusLDASampler, LightLDASampler

CONFIGURATIONS = [
    # (preset, scale, num_topics, warp_iterations, baseline_iterations)
    ("nytimes_like", 0.15, 50, 30, 10),
    ("pubmed_like", 0.08, 100, 30, 10),
]


def run_configuration(preset, scale, num_topics, warp_iterations, baseline_iterations):
    corpus = load_preset(preset, scale=scale, seed=0)
    trackers = {}

    warp = WarpLDA(corpus, num_topics=num_topics, num_mh_steps=2, seed=0)
    trackers["WarpLDA (M=2)"] = ConvergenceTracker("WarpLDA")
    warp.fit(warp_iterations, tracker=trackers["WarpLDA (M=2)"])

    # The paper's instant-update LightLDA; its delayed-count form is Fig. 7's
    # LightLDA+DW+DD ablation point (repro.core.variants).
    light = LightLDASampler(corpus, num_topics=num_topics, num_mh_steps=2, seed=0)
    trackers["LightLDA (M=2)"] = ConvergenceTracker("LightLDA")
    light.fit(baseline_iterations, tracker=trackers["LightLDA (M=2)"])

    fplus = FPlusLDASampler(corpus, num_topics=num_topics, seed=0)
    trackers["F+LDA"] = ConvergenceTracker("F+LDA")
    fplus.fit(baseline_iterations, tracker=trackers["F+LDA"])

    return corpus, trackers


def summarise(setting, corpus, trackers):
    blocks = []
    # Column 1 & 2: log likelihood vs iteration and vs time.
    blocks.append(
        format_series(
            {name: tracker.log_likelihoods for name, tracker in trackers.items()},
            x_label="iteration",
            x_values=trackers["WarpLDA (M=2)"].iterations,
            title=f"{setting}: log likelihood by iteration (rows follow WarpLDA's iterations)",
        )
    )
    time_rows = [
        {
            "Algorithm": name,
            "final log-likelihood": round(tracker.final_log_likelihood, 1),
            "wall-clock seconds": round(tracker.times[-1], 2),
            "throughput (Mtoken/s)": round(tracker.records[-1].throughput / 1e6, 3),
        }
        for name, tracker in trackers.items()
    ]
    blocks.append(format_table(time_rows, title=f"{setting}: time and throughput"))

    # Columns 3 & 4: speedup of WarpLDA over each baseline at a target
    # likelihood (the likelihood the slowest run managed to reach).
    reference = trackers["WarpLDA (M=2)"]
    target = max(
        min(tracker.best_log_likelihood() for tracker in trackers.values()),
        reference.log_likelihoods[1],
    )
    ratio_rows = []
    for name, tracker in trackers.items():
        if name == "WarpLDA (M=2)":
            continue
        ratio_rows.append(
            {
                "Baseline": name,
                "target log-likelihood": round(target, 1),
                "iteration ratio (baseline / WarpLDA)": speedup_ratio(
                    tracker, reference, target, metric="iterations"
                ),
                "time ratio (baseline / WarpLDA)": speedup_ratio(
                    tracker, reference, target, metric="time"
                ),
            }
        )
    blocks.append(format_table(ratio_rows, title=f"{setting}: speedup of WarpLDA (Fig. 5, cols 3-4)"))
    return "\n\n".join(blocks)


@pytest.mark.parametrize(
    "preset,scale,num_topics,warp_iterations,baseline_iterations", CONFIGURATIONS
)
def test_fig5_convergence(
    benchmark, emit, preset, scale, num_topics, warp_iterations, baseline_iterations
):
    corpus, trackers = benchmark.pedantic(
        run_configuration,
        args=(preset, scale, num_topics, warp_iterations, baseline_iterations),
        rounds=1,
        iterations=1,
    )
    setting = f"Fig. 5 {preset} K={num_topics}"
    emit(f"fig5_convergence_{preset}_K{num_topics}", summarise(setting, corpus, trackers))

    # All samplers land in the same likelihood ballpark.
    finals = [tracker.final_log_likelihood for tracker in trackers.values()]
    assert (max(finals) - min(finals)) / abs(sum(finals) / len(finals)) < 0.1

    # WarpLDA is faster per unit wall-clock time than LightLDA.
    warp = trackers["WarpLDA (M=2)"]
    light = trackers["LightLDA (M=2)"]
    target = light.final_log_likelihood
    ratio = speedup_ratio(light, warp, target, metric="time")
    assert ratio is not None and ratio > 1.0
