"""``tools/check_skips.py``: a JUnit report with a skip outside the
allowlist fails the check; allowed skips pass and are counted."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_skips.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_skips", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_skips = _load_tool()


def _report(tmp_path, *cases):
    body = "".join(
        f'<testcase classname="{classname}" name="{name}" time="0.0">'
        + ("" if reason is None else
           f'<skipped type="pytest.skip" message="{reason}">'
           f'{classname}: {reason}</skipped>')
        + "</testcase>"
        for classname, name, reason in cases)
    path = tmp_path / "junit.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" tests="{len(cases)}">{body}</testsuite>'
        "</testsuites>", encoding="utf-8")
    return str(path)


CONFORMANCE = "tests.test_backend_conformance.TestConformance"


def test_allowed_skips_pass(tmp_path, capsys):
    report = _report(
        tmp_path,
        (CONFORMANCE, "test_a[postgres-live]", "REPRO_TEST_DSN not set"),
        (CONFORMANCE, "test_b[minidb]",
         "backend has no durable database to adopt"),
        ("tests.test_catalog.TestCatalogCLI", "test_c", None))
    assert check_skips.main([report]) == 0
    assert "skips OK (2 allowed)" in capsys.readouterr().out


def test_unlisted_skip_fails(tmp_path, capsys):
    report = _report(
        tmp_path,
        (CONFORMANCE, "test_a[postgres-live]", "REPRO_TEST_DSN not set"),
        ("tests.test_catalog.TestCatalogCLI", "test_c",
         "fixture server did not start"))
    assert check_skips.main([report]) == 1
    err = capsys.readouterr().err
    assert ("tests.test_catalog.TestCatalogCLI::test_c: "
            "fixture server did not start") in err


def test_an_allowed_reason_in_another_file_fails(tmp_path):
    report = _report(
        tmp_path,
        ("tests.test_serve_server.TestShardClient", "test_d",
         "REPRO_TEST_DSN not set"))
    assert check_skips.main([report]) == 1


def test_source_file_drops_class_components():
    assert (check_skips.source_file("tests.test_x.TestOuter.TestInner")
            == "tests/test_x.py")
    assert (check_skips.source_file("benchmarks.ledger.test_ledger_smoke")
            == "benchmarks/ledger/test_ledger_smoke.py")
