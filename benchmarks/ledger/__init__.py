"""The perf ledger: one seeded benchmark over five named workloads.

``BENCHMARK.json`` at the repository root declares this package: the
workload names, the end-to-end metrics with their units, directions and
regression bounds, and the per-layer metrics of the traced pass.  Every
layer is measured from outside, by timing calls into its public
functions from the files in this directory; see ``README.md`` here for
the tables and the "moves / must not move" predictions.

Entry points::

    PYTHONPATH=src python -m benchmarks.ledger            # all workloads
    python3 benchmarks/ledger/run.py --workload cold_bseg_sqlite \\
        --seed 11 --seconds 10 --trace 0                   # one run
    PYTHONPATH=src python -m benchmarks.ledger noise --runs 5
    PYTHONPATH=src python -m benchmarks.ledger report <result-or-trace.json>
"""
