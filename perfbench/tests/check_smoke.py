"""Smoke test of the benchmark.

A short run of each workload must finish with no failed op and print every
end-to-end metric of ``BENCHMARK.json`` with its unit; a traced run must
print every per-layer metric.  The file is not named ``test_*.py`` so that
the package's own test run does not pick it up.  Run it from the checkout
root with either of

    python3 -m pytest -q perfbench/tests/check_smoke.py
    python3 perfbench/tests/check_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(directory: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(directory / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=directory, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect(result: dict, declared: list[dict]):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_one_command_prints_every_workload():
    proc = _run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        _expect(result, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values())
    fracs = [ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("failed_frac ")]
    assert [float(f) for f in fracs] == [0.0] * len(results)


def test_per_layer_metrics():
    result = _result(_run(ROOT, "census", 1))
    _expect(result, SPEC["per_layer"])
    assert result["metrics"]["census.zero_inputs"]["value"] > 0
    assert result["metrics"]["parsing.evaluate_calls"]["value"] == \
        len(inputs.census_ops(3))


def test_inputs_are_byte_identical_per_seed():
    for generate in inputs.GENERATORS.values():
        assert inputs.serialize(generate(5)) == inputs.serialize(generate(5))
    assert inputs.serialize(inputs.census_ops(5)) != inputs.serialize(inputs.census_ops(6))


def test_legal_words_brute_force():
    # golden mean: no "bb"; L_2 forbids "aaa" and "bba".
    assert inputs.legal_words("ab", ("bb",), 3) == ["aaa", "aab", "aba", "baa", "bab"]
    assert "bba" not in inputs.legal_words(*inputs.l_shift(2), 3)
    # "ab" is admissible but has no infinite continuation once "a" -> "b" is a dead end.
    assert inputs.legal_words("ab", ("ba", "bb"), 2) == ["aa"]


def test_failed_op_is_counted_not_fatal():
    assert run.import_package()
    from workloads import build_algebras
    algebras = build_algebras("census")
    ops = inputs.census_ops(3)[:2]
    bad = inputs.Op("bad", "bad", ops[0].shift, "z", "reduce", "s(q)")
    p = run.Pass([ops[0], bad, ops[1]], algebras)
    assert len(p.latencies) == 3 and len(p.failures) == 1
    assert p.answers[0] is not None and p.answers[1] is None


def test_checkout_without_program_fails():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp / path,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = _run(tmp, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
