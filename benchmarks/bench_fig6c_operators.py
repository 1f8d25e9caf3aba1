"""Figure 6(c) — query time by FEM operator (F / E / M) for BSDJ.

Paper: the E-operator takes about 75% of the time because it joins the
frontier with the edge table; F and M are cheaper.

Under nsql, minidb runs E and the MERGE (M) as separate statements.  The
SQL stores issue them as one upsert, timed as E, so there the nsql row
is reported as the fused "E+M" statement and the E/M split comes from
tsql, where E and M are separate statements again.
"""

from repro.bench.experiments import build_power_graph, operator_breakdown
from repro.bench.harness import format_table, paper_reference, scaled, write_report
from repro.core.sqlstyle import NSQL, TSQL


def _rows(style, operators, fused=False):
    return [{"sql_style": style,
             "operator": "E+M" if fused and name == "E" else name,
             "avg_time_s": round(seconds, 5)}
            for name, seconds in sorted(operators.items())]


def run_experiment():
    graph = build_power_graph(scaled(700))
    nsql = operator_breakdown(graph, method="BSDJ", num_queries=3,
                              sql_style=NSQL)
    if "M" in nsql:
        return _rows(NSQL, nsql)
    tsql = operator_breakdown(graph, method="BSDJ", num_queries=3,
                              sql_style=TSQL)
    return _rows(TSQL, tsql) + _rows(NSQL, nsql, fused=True)


def test_fig6c_operator_breakdown(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_report(
        "fig6c_operators",
        paper_reference(
            "Figure 6(c) (BSDJ time by operator)",
            [
                "The E-operator takes ~75% of the time (join with the graph table)",
                "The F- and M-operators are comparatively cheap",
                "Scale caveat: on laptop-sized graphs the F-operator's TVisited scans "
                "are not amortized the way they are against a multi-million-row edge "
                "table, so F can rival E here; the E >= M relation still holds",
                "On the SQL stores nsql fuses E and M into one upsert (row E+M); "
                "their E/M split is measured under tsql",
            ],
        ),
        format_table(rows, title="Reproduced per-operator time"),
    )
    # "E" and "M" come from the one style that times them separately.
    times = {row["operator"]: row["avg_time_s"] for row in rows}
    assert times["E"] >= times["M"]
