"""Seed-replication robustness: the headline result is not a lucky seed.

Runs the base / interfered / IOShares triplet across multiple seeds and
asserts the orderings and the ~30% reduction hold with confidence
intervals, not just pointwise.
"""

import pathlib


from repro.analysis import interference_reduction_pct, render_table
from repro.benchex import INTERFERER_2MB
from repro.experiments.multiseed import sweep_comparison
from repro.resex import IOShares

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SEEDS = [3, 7, 11]


def test_robustness_across_seeds(benchmark, capsys):
    def run():
        return sweep_comparison(
            SEEDS,
            {
                "base": dict(sim_s=0.8),
                "interfered": dict(interferer=INTERFERER_2MB, sim_s=0.8),
                "ioshares": dict(
                    interferer=INTERFERER_2MB, policy=IOShares(), sim_s=1.2
                ),
            },
        )[0]
    reps = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    rows = [
        [label, r.mean, r.ci95_halfwidth(), r.minimum, r.maximum]
        for label, r in reps.items()
    ]
    text = render_table(
        ["configuration", "mean (us)", "95% CI ±", "min", "max"],
        rows,
        title=f"Seed replication (seeds {SEEDS})",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "robustness_seeds.txt").write_text(text + "\n")
    with capsys.disabled():
        print(f"\n{text}\n")

    base, intf, ios = reps["base"], reps["interfered"], reps["ioshares"]
    # The ordering holds in every replication, not just on average.
    assert intf.minimum > base.maximum + 50.0
    assert ios.maximum < intf.minimum - 50.0
    # Base is rock stable across seeds.
    assert base.std < 2.0
    # The headline reduction holds for the worst seed pairing.
    worst_reduction = interference_reduction_pct(intf.minimum, ios.maximum)
    assert worst_reduction > 20.0
