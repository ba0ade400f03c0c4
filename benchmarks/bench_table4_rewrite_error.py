"""Table 4: absolute error of query rewriting with specialized NNs.

The paper reports the average error of the specialized-NN rewrite over three
runs for the five Figure 4 videos, all within the requested 0.1 bound.  The
reproduction forces the rewrite strategy (different training seeds per run)
and reports the mean absolute error of the frame-averaged count against the
recorded detector output on the unseen day.
"""

from __future__ import annotations

import numpy as np

from benchmarks.reporting import print_table, record
from repro.api.hints import QueryHints
from repro.workloads.queries import aggregate_query

TABLE4_VIDEOS = ["taipei", "night-street", "rialto", "grand-canal", "amsterdam"]
PAPER_ERRORS = {
    "taipei": 0.043,
    "night-street": 0.022,
    "rialto": 0.031,
    "grand-canal": 0.081,
    "amsterdam": 0.050,
}
RUNS = 3
ERROR_TOLERANCE = 0.1


def test_table4_rewrite_error(bench_env, benchmark):
    def run():
        rows = []
        for name in TABLE4_VIDEOS:
            bundle = bench_env.get(name)
            object_class = bundle.primary_class
            truth = bundle.recorded.mean_count(object_class)
            query = aggregate_query(name, object_class, ERROR_TOLERANCE)
            errors = []
            for seed in range(RUNS):
                session = bundle.fresh_session(
                    bench_env.default_config(include_training_time=False, seed=seed)
                )
                result = session.execute(
                    query, hints=QueryHints(force_plan="specialized_rewrite")
                )
                errors.append(abs(result.value - truth))
            mean_error = float(np.mean(errors))
            rows.append([name, object_class, truth, mean_error, PAPER_ERRORS[name]])
            record(
                "table4",
                {
                    "video": name,
                    "class": object_class,
                    "true_fcount": truth,
                    "mean_abs_error": mean_error,
                    "paper_error": PAPER_ERRORS[name],
                },
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Table 4: query-rewriting error (mean of {RUNS} runs, target <= 0.1)",
        ["video", "object", "true FCOUNT", "measured |err|", "paper |err|"],
        rows,
    )
    # The paper's headline: every video stays within the requested bound.
    # Allow modest slack for the smaller synthetic videos.
    for row in rows:
        assert row[3] <= 2 * ERROR_TOLERANCE
    # And most videos should genuinely meet the bound.
    within = sum(1 for row in rows if row[3] <= ERROR_TOLERANCE)
    assert within >= len(rows) - 1
