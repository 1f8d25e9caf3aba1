"""Smoke test of the perf ledger (tier-1; a few seconds at ``--scale 0.05``).

Checks the contract, not the numbers: every workload and metric that
``BENCHMARK.json`` declares is emitted with the declared unit, names are
well-formed, the op stream is a pure function of the seed, and a wrong
oracle entry flips the exit code.
"""

import functools
import json
import re

import pytest

from benchmarks.ledger import cli, procs, runner, spec
from benchmarks.ledger.ops import stream_bytes
from benchmarks.ledger.workloads import WORKLOADS, stream_of

SCALE = 0.05
SECONDS = spec.REFERENCE_SECONDS
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_is_well_formed():
    contract = spec.load_contract()
    assert contract["paths"] == ["benchmarks/ledger"]
    assert set(spec.workload_names()) == set(WORKLOADS)
    names = spec.workload_names() + [
        entry["name"] for section in ("end_to_end", "per_layer")
        for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    # Wider than the issue's 10/15 %: README, "Bounds and spread".
    assert spec.end_to_end_bounds() == {
        "setup_s": 0.25, "latency_p50_ms": 0.25, "latency_p95_ms": 0.25,
        "ops_per_s": 0.25, "failed_share": 0.0, "peak_rss_mb": 0.10}


@pytest.mark.parametrize("workload", spec.workload_names())
def test_every_declared_metric_is_emitted(workload, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = runner.run(workload, seed=spec.DEFAULT_SEED,
                            seconds=SECONDS, trace=trace, scale=SCALE,
                            trace_dir=tmp_path)
        assert result.correct, result.failures
        line = json.loads(result.driver_line())
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        emitted = {name: metric["unit"]
                   for name, metric in line["metrics"].items()}
        assert emitted == spec.metric_units(section)
        assert all(isinstance(metric["value"], (int, float))
                   for metric in line["metrics"].values())
        if not trace:
            assert result.as_dict()["metrics"][spec.FAILED_SHARE] == 0.0


@pytest.mark.parametrize("workload", spec.workload_names())
def test_stream_is_a_function_of_the_seed(workload):
    sizes = spec.sizing(workload, SECONDS, SCALE)
    first = stream_bytes(stream_of(workload, sizes, spec.DEFAULT_SEED))
    again = stream_bytes(stream_of(workload, sizes, spec.DEFAULT_SEED))
    other = stream_bytes(stream_of(workload, sizes, spec.HELD_OUT_SEED))
    assert first == again
    assert first != other


def test_wrong_oracle_entry_flips_the_exit_code(capsys, monkeypatch):
    argv = ["--workload", "cold_bseg_sqlite", "--seconds", str(SECONDS),
            "--trace", "0", "--scale", str(SCALE)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(runner, "run", functools.partial(
        runner.run, corrupt_oracle=True))
    assert cli.main(argv) == 1
    assert "FAILED op 0" in capsys.readouterr().out


def test_helper_that_never_listens_fails_fast(tmp_path):
    with pytest.raises(procs.HelperStartError):
        procs.Helper("repro.no_such_helper", [], tmp_path)


def test_unhealthy_helper_fails_every_op(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise procs.HelperStartError("never became healthy")

    monkeypatch.setattr(procs, "start_fallback_server", refuse)
    result = runner.run("cold_bsdj_wire", seed=spec.DEFAULT_SEED,
                        seconds=SECONDS, trace=False, scale=SCALE)
    assert not result.correct
    assert result.failed == result.attempted == result.info["ops"]
