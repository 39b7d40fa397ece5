"""Tests of the benchmark itself: its oracles, and that a wrong output counts as failed.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qelicit
import qelicit.cli
import qelicit.properties
import oracles as O
import run
from workloads import SCORES, WORKLOADS, rand_state

ROOT = Path(__file__).resolve().parent.parent


def built(name, seed=3):
    w = WORKLOADS[name](str(ROOT / ".bench_out"))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    w.setup(qelicit, seed)
    return w


def tally(ops):
    t = run.Tally()
    t.run(ops)
    return t


def failed_names(ops):
    failed = []
    for op in ops:
        t = tally([op])
        if t.failed:
            failed.append(op.name)
    return failed


# ---------------------------------------------------------------------------
# oracle inputs, including the edge cases a sampled check rarely draws


def make_state(kind: str, n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    if kind == "full":
        return rand_state(g, n)
    if kind == "deficient":
        return rand_state(g, n, int(g.integers(1, n)))
    U = np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))[0]
    if kind == "repeated":
        lam = np.repeat(g.dirichlet(np.ones(2)), [n // 2, n - n // 2])
        lam = lam / lam.sum()
    else:  # near-pure: one eigenvalue close to 1, the rest tiny but nonzero
        eps = 10.0 ** g.uniform(-9, -3)
        lam = np.full(n, eps / (n - 1))
        lam[0] = 1.0 - eps
    return O.herm((U * lam) @ U.conj().T)


KINDS = ("full", "deficient", "repeated", "near-pure")
states = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(SCORES), n=st.integers(2, 6), report=states, belief=states)
def test_expected_score_matches_closed_form(name, n, report, belief):
    r, rho = make_state(report[0], n, report[1]), make_state(belief[0], n, belief[1])
    if name == "ml:s2" and np.linalg.eigvalsh(r)[0] <= 1e-8:
        return  # the log-det score takes full-rank reports only (smallest eigenvalue > 1e-8)
    S = qelicit.make_score(name, n)
    got = qelicit.expected_score(S, r, rho)
    want = O.expected(name, r, rho, O.canonical_povm(n))
    assert O.close(got, want, rtol=1e-8, atol=1e-10), (got, want)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), a=states, b=states)
def test_entropies_match_closed_form(n, a, b):
    rho, sigma = make_state(a[0], n, a[1]), make_state(b[0], n, b[1])
    assert O.close(qelicit.von_neumann_entropy(rho), O.entropy(rho), atol=1e-10)
    assert O.close(qelicit.relative_entropy(rho, sigma), O.relative_entropy(rho, sigma),
                   rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_canonical_povm_is_the_registry_measurement(n):
    ours = O.canonical_povm(n)
    theirs = np.stack(list(qelicit.canonical_complete(n)))
    assert np.allclose(ours, theirs, atol=1e-12)


@pytest.mark.parametrize("name", ["binary-brier", "spectral:brier", "spectral:log", "ml:s1"])
def test_divergence_is_self_score_minus_score(name):
    g = np.random.default_rng(7)
    r, rho = rand_state(g, 4), rand_state(g, 4)
    loss = O.expected(name, rho, rho) - O.expected(name, r, rho)
    assert O.close(loss, O.divergence(name, r, rho), rtol=1e-10)
    assert O.divergence(name, rho, rho) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# every workload's ops pass on the library as it is


@pytest.mark.parametrize("name", ["library-calls", "elicit"])
def test_round_passes(name):
    w = built(name)
    t = tally(w.round(qelicit, 3, 0))
    assert t.attempted > 0 and t.failed == 0


# ---------------------------------------------------------------------------
# negative controls: a wrong value must be counted as a failed op


def test_perturbed_expected_score_fails(monkeypatch):
    w = built("library-calls")
    ops = w.round(qelicit, 3, 0)
    real = qelicit.expected_score

    def perturbed(S, r, rho):
        return real(S, r, rho) + 1e-6

    monkeypatch.setattr(qelicit, "expected_score", perturbed)
    failed = failed_names(ops)
    expected_ops = [op.name for op in ops if op.name.startswith("expected_score")]
    # -inf stays -inf under the perturbation, so those ops still pass
    assert len(failed) >= len(expected_ops) // 2
    assert all(name.startswith("expected_score") for name in failed)


def test_raising_op_fails_and_is_not_timed(monkeypatch):
    w = built("library-calls")
    ops = [op for op in w.round(qelicit, 3, 0) if op.name.startswith("von_neumann_entropy")]

    def raises(rho):
        raise RuntimeError("early exit")

    monkeypatch.setattr(qelicit, "von_neumann_entropy", raises)
    t = tally(ops)
    assert t.attempted == t.failed == len(ops) > 0
    assert t.times == []


def _verify_ops(w, names):
    return [op for op in w.round(qelicit, 3, 0) if op.name in names]


def test_swapped_verdict_fails(monkeypatch):
    w = built("verify-small")
    real = qelicit.cli.run_verify

    def swapped(*args, **kwargs):
        rep = real(*args, **kwargs)
        for key in ("observed", "expected"):  # self-consistent, so the CLI exits 0
            rep[key]["truthful"] = not rep[key]["truthful"]
        return rep

    monkeypatch.setattr(qelicit.cli, "run_verify", swapped)
    names = {"verify ml:s3 d=2", "verify binary-brier d=2"}
    assert sorted(failed_names(_verify_ops(w, names))) == sorted(names)


def test_registry_claiming_a_wrong_verdict_fails(monkeypatch):
    w = built("verify-small")
    entry = qelicit.registry.SCORE_REGISTRY["ml:s3"]
    monkeypatch.setitem(qelicit.registry.SCORE_REGISTRY, "ml:s3",
                        qelicit.registry.ScoreEntry(entry.make, True, True, True, True))
    assert failed_names(_verify_ops(w, {"verify ml:s3 d=3"})) == ["verify ml:s3 d=3"]


def test_tampered_gain_fails(monkeypatch):
    w = built("verify-small")
    real = qelicit.cli.run_verify

    def tampered(*args, **kwargs):
        rep = real(*args, **kwargs)
        for sub in rep["reports"]:
            for v in sub["truthfulness"]["violations"]:
                v["gap"] *= 2.0
        return rep

    monkeypatch.setattr(qelicit.cli, "run_verify", tampered)
    assert failed_names(_verify_ops(w, {"verify ml:s4 d=2"})) == ["verify ml:s4 d=2"]


def test_wrong_optimizer_value_fails(monkeypatch):
    w = built("elicit")
    ops = [op for op in w.round(qelicit, 3, 0) if op.name.startswith("optimize_top_eigenvector")]
    real = qelicit.properties.optimize_top_eigenvector

    def off(*args, **kwargs):
        x, v = real(*args, **kwargs)
        return x, v + 1e-4

    monkeypatch.setattr(qelicit.properties, "optimize_top_eigenvector", off)
    assert len(failed_names(ops)) == len(ops) == 3


def test_missing_witness_fails(monkeypatch):
    w = built("elicit")
    ops = [op for op in w.round(qelicit, 3, 0) if op.name == "find_level_set_witness entropy"]
    monkeypatch.setattr(qelicit, "find_level_set_witness", lambda *a, **k: None)
    assert failed_names(ops) == ["find_level_set_witness entropy"]


# ---------------------------------------------------------------------------
# the command itself


def bench(args, cwd):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_per_layer_metric():
    out = bench(["--workload", "library-calls", "--seed", "2", "--seconds", "1", "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(result["metrics"]) == sorted(listed)
    assert result["failed"] == 0 and result["correct"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(["--workload", "library-calls", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
