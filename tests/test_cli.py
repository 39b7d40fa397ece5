import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qelicit
from qelicit import cli
from qelicit.cli import example_mixture_state, main, paper_example_rows, run_verify
from qelicit.linalg import hermitian_part, matrix_to_json, random_density, random_hermitian
from qelicit.measurement import standard_pvm
from qelicit.properties import find_level_set_witness
from qelicit.registry import make_property, make_score, replay_verify, run_witness
from qelicit.reports import json_safe
from qelicit.scores import QuantumScore, equivalence_check, log_spectral, projective_brier, truthfulness_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPaperExamples:
    def test_all_rows_pass(self):
        rows = paper_example_rows()
        assert rows, "no rows produced"
        assert all(r["pass"] for r in rows), [r["name"] for r in rows if not r["pass"]]

    def test_rows_and_expected_values_are_pinned(self):
        rows = paper_example_rows()
        # rho = [[1, 1], [1, 5]] / 6 and rep = diag(0.3, 0.7)
        closed = 2.0 * (0.3 / 6.0 + 0.7 * 5.0 / 6.0) - (0.3**2 + 0.7**2)  # 2 <rep, rho> - <rep, rep>
        divergence = 2.0 * (2.0 / 15.0) ** 2 + 2.0 / 36.0  # ||rho - rep||_F^2
        assert [(r["name"], r["expected"]) for r in rows] == [
            ("standard-basis-probabilities", [1.0 / 6.0, 5.0 / 6.0]),
            ("hadamard-basis-probabilities", [2.0 / 3.0, 1.0 / 3.0]),
            ("eigenvalue-level-set-counterexample", {"value_both": [0.75, 0.25], "value_mix": [0.5, 0.5]}),
            ("max-eigenvalue-level-set-counterexample", {"value_both": 0.75, "value_mix": 0.5}),
            ("binary-brier-expected-form", {"closed_form": pytest.approx(closed, abs=1e-12),
                                            "divergence": pytest.approx(divergence, abs=1e-12)}),
            ("trace-score-counterexample", {"truthful": 0.52, "lie": 0.6}),
            ("s4-log-counterexample", {"truthful": np.log(0.52), "lie": np.log(0.6)}),
            ("s5-log-counterexample", {"truthful": np.log(0.52), "lie": np.log(0.6)}),
        ]

    def test_cli_prints_table_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 0
        assert "standard-basis-probabilities" in out
        assert "FAIL" not in out

    def test_out_writes_the_report_as_json_or_the_table_as_csv(self, capsys, tmp_path):
        rows = paper_example_rows()
        code, _, _ = run_cli(capsys, "paper-examples", "--out", str(tmp_path / "x.json"))
        assert code == 0
        assert json.loads((tmp_path / "x.json").read_text()) == json_safe({"rows": rows, "all_pass": True})
        code, _, _ = run_cli(capsys, "paper-examples", "--out", str(tmp_path / "x.csv"))
        assert code == 0
        with open(tmp_path / "x.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table == [["name", "pass"], *([r["name"], "True"] for r in rows)]


class TestVerify:
    @pytest.mark.parametrize("call, message", [
        (([2.0], 40), "dims must be non-empty, every dimension an integer of at least 2 "
                      "(checks are vacuous below), got [2.0]"),
        (([2], 40.0), "trials must be an integer of at least the number of dimensions (1), got 40.0"),
        (([2], True), "trials must be an integer of at least the number of dimensions (1), got True"),
        (([2, 3], 1), "trials must be at least the number of dimensions (2), got 1"),
        (([1], 40), "dims must be non-empty, every dimension at least 2 (checks are vacuous below), got [1]"),
    ])
    def test_counts_that_are_not_integers_are_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_verify("fixed:brier", *call, 0)

    def test_truthful_score_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--score", "spectral:brier", "--dims", "2,3",
            "--trials", "300", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["as_expected"]
        assert report["observed"]["strictly_truthful"]

    def test_expected_failure_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--score", "ml:s3", "--dims", "2",
            "--trials", "200", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert not report["observed"]["truthful"]
        assert report["as_expected"]

    def test_unknown_score_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--score", "nope", "--trials", "10")
        assert code == 2
        assert "unknown score" in err

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "verify", "--score", "binary-brier", "--dims", "2",
                "--trials", "100", "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_trials_exit_two(self, capsys):
        for trials in ("-5", "0", "1"):  # 1 leaves dimension 3 without a trial
            code, out, err = run_cli(
                capsys, "verify", "--score", "spectral:log", "--dims", "2,3", "--trials", trials
            )
            assert code == 2, trials
            assert "trials" in err
            assert out == ""

    def test_dimension_one_exits_two(self, capsys):
        for dims in ("1", "0", "2,-1", ","):  # also no dimension at all
            code, out, err = run_cli(
                capsys, "verify", "--score", "ml:s3", "--dims", dims, "--trials", "10"
            )
            assert code == 2, dims
            assert "dimension" in err
            assert out == ""

    @pytest.mark.parametrize("dims", ["2,a", "3.5"])
    def test_unparsable_dims_name_the_option(self, capsys, dims):
        code, out, err = run_cli(capsys, "verify", "--score", "ml:s3", "--dims", dims, "--trials", "10")
        assert code == 2
        assert "--dims" in err and repr(dims) in err
        assert out == ""

    def test_violation_replays_from_its_stream(self):
        seed = 7
        report = run_verify("ml:s3", [2, 3], 80, seed)
        sub = report["reports"][1]
        keys = ("truthfulness", "unitary_invariance", "implementability")
        assert [sub[k]["stream"] for k in keys] == [3, 4, 5]
        truth = sub["truthfulness"]
        v = next(v for v in truth["violations"] if v["kind"] == "gain")
        g = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(truth["stream"],)))
        replay = truthfulness_check(make_score("ml:s3", sub["dim"]), v["trial"] + 1, dims=(sub["dim"],), rng=g)
        assert replay.to_json()["violations"][-1] == v

    def test_trials_split_exactly_across_dims(self, capsys, tmp_path):
        out = tmp_path / "split.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--score", "binary-brier", "--dims", "2,3,4",
            "--trials", "20", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        per_dim = [sub["truthfulness"]["trials"] for sub in report["reports"]]
        assert per_dim == [7, 7, 6]
        assert sum(per_dim) == report["trials"] == 20


class TestMeasure:
    @pytest.fixture
    def state_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(example_mixture_state())))
        return str(path)

    def test_counts_sum_to_samples(self, capsys, state_file):
        code, out, _ = run_cli(
            capsys, "measure", "--state", state_file, "--basis", "standard",
            "--trials", "5000", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert sum(report["counts"]) == 5000
        assert report["probs"] == pytest.approx([1 / 6, 5 / 6], abs=1e-12)

    def test_deterministic_given_seed(self, capsys, state_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                capsys, "measure", "--state", state_file, "--basis", "hadamard",
                "--trials", "1000", "--seed", "11", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_povm_file(self, capsys, state_file, tmp_path):
        from qelicit.measurement import canonical_complete

        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(canonical_complete(2).to_json()))
        code, out, _ = run_cli(
            capsys, "measure", "--state", state_file, "--povm", str(povm_path),
            "--trials", "100", "--seed", "0",
        )
        assert code == 0
        assert len(json.loads(out)["counts"]) == 4

    @pytest.mark.parametrize("dim", [7.5, 3, True, "x", -1, None],
                             ids=["fraction", "three", "bool", "string", "negative", "missing"])
    def test_povm_file_with_a_wrong_dim_exits_two(self, capsys, state_file, tmp_path, dim):
        from qelicit.measurement import standard_pvm

        doc = standard_pvm(2).to_json()
        if dim is None:
            del doc["dim"]
        else:
            doc["dim"] = dim
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "measure", "--state", state_file, "--povm", str(povm_path), "--trials", "10")
        assert code == 2
        assert out == ""
        assert ("element 0 has dimension 2" if dim in (3, -1) else "malformed measurement") in err

    def test_canonical_basis_has_dim_squared_outcomes(self, capsys, state_file):
        code, out, _ = run_cli(capsys, "measure", "--state", state_file, "--basis", "canonical", "--trials", "10")
        assert code == 0
        assert len(json.loads(out)["counts"]) == 4

    @pytest.mark.parametrize("basis, dim, message", [
        ("hadamard", 3, "the hadamard basis is only defined for dimension 2"),
        ("bogus", 2, "unknown basis 'bogus'; use standard, hadamard, or canonical"),
    ])
    def test_a_basis_that_does_not_exist_exits_two(self, capsys, tmp_path, basis, dim, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(dim) / dim)))
        code, out, err = run_cli(capsys, "measure", "--state", str(path), "--basis", basis, "--trials", "10")
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

    def test_csv_output(self, capsys, state_file, tmp_path):
        out = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsys, "measure", "--state", state_file, "--basis", "standard",
            "--trials", "500", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "outcome,count,prob"
        assert len(lines) == 3  # header + two outcomes

    def test_invalid_state_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2))))  # trace 2
        code, _, err = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert code == 2
        assert "trace" in err

    def test_negative_trials_exit_two(self, capsys, state_file):
        code, out, err = run_cli(capsys, "measure", "--state", state_file, "--trials", "-3")
        assert code == 2
        assert err == "error: trials must be at least 0, got -3\n"
        assert out == ""

    @pytest.mark.parametrize("count, want", [
        (["--trials", "-1"], "error: trials must be at least 0, got -1\n"),
        (["--seed", "-1"], "error: seed must be at least 0, got -1\n"),
    ], ids=["trials", "seed"])
    def test_counts_are_checked_before_the_files_are_read(self, capsys, tmp_path, count, want):
        code, out, err = run_cli(capsys, "measure", "--state", str(tmp_path / "missing.json"), *count)
        assert code == 2
        assert err == want
        assert out == ""

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, _, _ = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert code == 2

    @pytest.mark.parametrize("key, rows", [
        ("re", [["0.5", 0], [0, 0.5]]),
        ("re", [[True, 0], [0, False]]),
        ("re", [[None, 0], [0, 1.0]]),
        ("im", [[0, "0"], [0, 0]]),
    ], ids=["string-re", "bool-re", "null-re", "string-im"])
    def test_an_entry_that_is_not_a_number_names_its_key(self, capsys, tmp_path, key, rows):
        doc = {**matrix_to_json(np.diag([0.5, 0.5])), key: rows}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert (code, out) == (2, "")
        assert f"malformed matrix JSON: {key} entry" in err and "is not a number" in err

    def test_a_document_that_is_not_an_object_is_refused(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[0.5, 0], [0, 0.5]]))
        code, out, err = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert (code, out) == (2, "")
        assert "matrix JSON must be an object with dim, re, im" in err

    @pytest.mark.parametrize("elements, message", [
        ("ab", "malformed measurement: elements must be a JSON list, got str"),
        ([matrix_to_json(np.eye(2)), [1]], "element 1: matrix JSON must be an object with dim, re, im, got list"),
    ], ids=["string", "list-element"])
    def test_malformed_povm_elements_name_their_key_or_element(self, capsys, state_file, tmp_path, elements, message):
        path = tmp_path / "povm.json"
        path.write_text(json.dumps({"dim": 2, "elements": elements}))
        code, out, err = run_cli(capsys, "measure", "--state", state_file, "--povm", str(path), "--trials", "10")
        assert (code, out) == (2, "")
        assert message in err

    def test_a_povm_document_that_is_not_an_object_is_refused(self, capsys, state_file, tmp_path):
        path = tmp_path / "povm.json"
        path.write_text(json.dumps([[1, 0]]))
        code, out, err = run_cli(capsys, "measure", "--state", state_file, "--povm", str(path), "--trials", "10")
        assert (code, out) == (2, "")
        assert "measurement JSON must be an object with dim, elements, got list" in err

    @pytest.mark.parametrize("key", ["re", "im"])
    def test_a_ragged_row_names_its_key_and_row(self, capsys, tmp_path, key):
        doc = {**matrix_to_json(np.diag([0.5, 0.5])), key: [[0.5 if key == "re" else 0, 0], [0]]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert (code, out) == (2, "")
        assert f"malformed matrix JSON: {key} row 1 has 1 entries, expected 2 entries" in err


class TestMarketSim:
    def scenario(self, tmp_path, n_trades, cost="lmsr"):
        rng = np.random.default_rng(13)
        doc = {
            "dim": 2,
            "trades": [matrix_to_json(random_hermitian(2, rng=rng)) for _ in range(n_trades)],
            "truth": matrix_to_json(random_density(2, rng=rng)),
        }
        if cost is not None:
            doc["cost"] = cost
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_empty_scenario(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "market-sim", "--scenario", self.scenario(tmp_path, 0))
        assert code == 0
        report = json.loads(out)
        assert report["ledger"] == []
        assert report["maker_loss"] == pytest.approx(0.0, abs=1e-12)

    def test_five_trade_ledger_identities(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "market-sim", "--scenario", self.scenario(tmp_path, 5))
        assert code == 0
        report = json.loads(out)
        assert len(report["ledger"]) == 5
        # maker loss telescopes: total expected payoff minus total cost
        assert report["maker_loss"] == pytest.approx(
            report["total_expected_payoff"] - report["total_cost"], abs=1e-9
        )
        assert report["maker_loss"] <= report["loss_bound"] + 1e-9

    def test_cost_lmsr_or_absent_gives_one_report_without_cost(self, capsys, tmp_path):
        outs = [run_cli(capsys, "market-sim", "--scenario", self.scenario(tmp_path, 3, cost)) for cost in ("lmsr", None)]
        assert outs[0] == outs[1]
        code, out, _ = outs[0]
        assert code == 0
        assert sorted(json.loads(out)) == [
            "dim", "ledger", "loss_bound", "maker_loss", "total_cost", "total_expected_payoff"]

    def test_a_cost_other_than_lmsr_is_refused(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "market-sim", "--scenario", self.scenario(tmp_path, 3, "quadratic"))
        assert (code, out) == (2, "")
        assert "scenario cost must be 'lmsr', the only market maker, got 'quadratic'" in err

    def test_a_large_trade_paying_nothing_at_the_truth_runs(self, capsys, tmp_path):
        # a trade of scale 1e5 projected off the truth: its payoff cancels to float noise of order 1e-11,
        # whose imaginary part once failed a residual test of the pairing
        g = np.random.default_rng(0)
        truth = random_density(4, rng=g)
        R = 1e5 * random_hermitian(4, rng=g)
        R = hermitian_part(R - (np.vdot(truth, R).real / np.vdot(truth, truth).real) * truth)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"dim": 4, "trades": [matrix_to_json(R)], "truth": matrix_to_json(truth)}))
        code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
        assert abs(report["ledger"][0]["expected_payoff"]) <= 1e-9
        assert report["maker_loss"] <= report["loss_bound"]

    def test_dimension_mismatch_names_the_matrix(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        good = matrix_to_json(random_hermitian(3, rng=rng))
        truth = matrix_to_json(random_density(3, rng=rng))
        for trades, truth_doc, label in (
            ([good, matrix_to_json(random_hermitian(2, rng=rng))], truth, "trade 1"),
            ([good], matrix_to_json(random_density(2, rng=rng)), "truth"),
        ):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"dim": 3, "trades": trades, "truth": truth_doc}))
            code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
            assert code == 2, label
            assert f"{label} has dimension 2" in err
            assert "broadcast" not in err
            assert out == ""

    @pytest.mark.parametrize("dim", [2.7, "x"])
    def test_non_integer_dim_is_malformed(self, capsys, tmp_path, dim):
        rng = np.random.default_rng(13)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"dim": dim, "trades": [], "truth": matrix_to_json(random_density(2, rng=rng))}))
        code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert code == 2
        assert "malformed scenario" in err and repr(dim) in err
        assert out == ""

    def test_a_string_entry_in_a_trade_is_refused(self, capsys, tmp_path):
        trade = matrix_to_json(np.diag([1.0, 0.0]))
        trade["re"][0][0] = "1.0"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"dim": 2, "trades": [trade], "truth": matrix_to_json(np.diag([0.5, 0.5]))}))
        code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "re entry '1.0' is not a number" in err

    @pytest.mark.parametrize("trades, message", [
        ("ab", "malformed scenario: trades must be a JSON list, got str"),
        ({"a": 1}, "malformed scenario: trades must be a JSON list, got dict"),
        (5, "malformed scenario: trades must be a JSON list, got int"),
        (None, "malformed scenario: trades must be a JSON list, got NoneType"),
        ([matrix_to_json(np.diag([1.0, 0.0])), None], "trade 1: matrix JSON must be an object with dim, re, im"),
    ], ids=["string", "object", "number", "null", "null-trade"])
    def test_malformed_trades_name_their_key_or_trade(self, capsys, tmp_path, trades, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"dim": 2, "trades": trades, "truth": matrix_to_json(np.diag([0.5, 0.5]))}))
        code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert message in err

    def test_a_scenario_that_is_not_an_object_is_refused(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([1]))
        code, out, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "scenario JSON must be an object with dim, trades, truth, got list" in err

    def test_missing_truth_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "trades": []}))
        code, _, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert code == 2
        assert "malformed scenario: missing key 'truth'" in err

    @pytest.mark.parametrize("doc, message", [
        ({"trades": []}, "malformed scenario: missing key 'dim'"),
        ({"dim": 2, "trades": [], "truth": {"dim": 2, "re": [[1, 0], [0, 0]]}},
         "truth: malformed matrix JSON: missing key 'im'"),
    ], ids=["dim", "im"])
    def test_a_missing_key_is_named(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert code == 2
        assert message in err


@pytest.mark.parametrize("argv, missing", [
    (["measure", "--state", "{d}/missing.json"], "{d}/missing.json"),
    (["market-sim", "--scenario", "{d}/missing.json"], "{d}/missing.json"),
    (["verify", "--score", "binary-brier", "--dims", "2", "--trials", "4", "--out", "{d}/no/such/dir/x.json"],
     "{d}/no/such/dir/x.json"),
], ids=["measure-state", "market-scenario", "verify-out"])
def test_os_errors_name_the_file(capsys, tmp_path, argv, missing):
    code, _, err = run_cli(capsys, *[a.format(d=tmp_path) for a in argv])
    assert code == 2
    assert missing.format(d=tmp_path) in err


class TestWitness:
    def test_entropy_counterexample_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--property", "entropy", "--dims", "3",
            "--trials", "100", "--seed", "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["witness"] is not None
        assert report["witness"]["verdict"] == "counterexample"

    def test_expectation_finds_none(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--property", "expectation", "--dims", "2",
            "--trials", "50", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["witness"] is None

    def test_unknown_property_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--property", "nope", "--trials", "5")
        assert code == 2
        assert "unknown property" in err

    def test_zero_trials_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--property", "entropy", "--trials", "0")
        assert code == 2
        assert "trials" in err
        assert out == ""

    def test_dimension_one_exits_two(self, capsys):
        for dims in ("1", "0", "2,-1", ","):  # also no dimension at all
            code, out, err = run_cli(
                capsys, "witness", "--property", "entropy", "--dims", dims, "--trials", "10"
            )
            assert code == 2, dims
            assert "dimension" in err
            assert out == ""

    def test_unparsable_dims_name_the_option(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--property", "entropy", "--dims", "3.5")
        assert code == 2
        assert "--dims" in err and "'3.5'" in err
        assert out == ""


class TestRunWitness:
    @pytest.mark.parametrize("name, dim, trials, found", [("entropy", 3, 100, True), ("expectation", 2, 50, False)])
    def test_verdict_is_compared_with_the_registry(self, name, dim, trials, found):
        report = run_witness(name, [dim], trials, 2)
        assert (report["witness"] is not None) == found
        assert report["expected_elicitable"] == (not found)
        assert report["as_expected"] is True

    def test_a_claimed_verdict_that_the_search_contradicts_is_not_as_expected(self, monkeypatch):
        monkeypatch.setitem(qelicit.registry.PROPERTY_REGISTRY, "entropy",
                            {**qelicit.registry.PROPERTY_REGISTRY["entropy"], "elicitable": True})
        report = run_witness("entropy", [3], 100, 2)
        assert report["witness"] is not None and report["as_expected"] is False

    def test_unknown_property_names_the_known_ones(self):
        with pytest.raises(KeyError, match="unknown property 'nope'; known properties: abstain, eig-pair"):
            run_witness("nope", [2], 5, 0)

    @pytest.mark.parametrize("dims", [[1], [0], [2, -1], []])
    def test_dimension_below_two_is_refused(self, dims):
        with pytest.raises(ValueError, match="dimension at least 2"):
            run_witness("entropy", dims, 5, 0)

    def test_more_than_one_dimension_is_refused(self, capsys):
        # a second dimension would go unprobed
        with pytest.raises(ValueError, match=r"^a witness search probes one dimension, got dims \[3, 7\]$"):
            run_witness("entropy", [3, 7], 5, 0)
        code, out, err = run_cli(capsys, "witness", "--property", "entropy", "--dims", "3,7", "--trials", "5")
        assert (code, out) == (2, "")
        assert err == "error: a witness search probes one dimension, got dims [3, 7]\n"

    @pytest.mark.parametrize("call, message", [
        (("entropy", [3], 2.5), "trials must be an integer of at least 1, got 2.5"),
        (("entropy", [3], True), "trials must be an integer of at least 1, got True"),
        (("entropy", [3.0], 5), "dims must be non-empty, every dimension an integer of at least 2 "
                                "(checks are vacuous below), got [3.0]"),
        (("entropy", [3], 0), "trials must be at least 1, got 0"),
        (("entropy", [1], 5), "dims must be non-empty, every dimension at least 2 (checks are vacuous below), got [1]"),
    ])
    def test_counts_are_refused_by_the_names_the_caller_passed(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_witness(*call, 0)

    @pytest.mark.parametrize("name, dim, trials, seed, elicitable", [
        ("entropy", 3, 100, 2, False), ("expectation", 2, 50, 2, True), ("max-eigenvalue", 2, 30, 5, False),
    ])
    def test_stdout_is_the_search_and_its_verdict(self, capsys, name, dim, trials, seed, elicitable):
        # the search's report, rebuilt from find_level_set_witness, plus its verdict
        code, out, _ = run_cli(capsys, "witness", "--property", name, "--dims", str(dim),
                               "--trials", str(trials), "--seed", str(seed))
        found = find_level_set_witness(make_property(name, dim), dim, probes=trials, rng=np.random.default_rng(seed))
        assert (found is None) == elicitable
        want = {"property": name, "dim": dim, "probes": trials, "seed": seed, "expected_elicitable": elicitable,
                "witness": found.to_json() if found else None}
        assert code == 0
        assert out == json.dumps({**want, "as_expected": True}, sort_keys=True, separators=(",", ":")) + "\n"

    def test_contradicted_verdict_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_witness", lambda *args, **kwargs: {"as_expected": False})
        code, out, _ = run_cli(capsys, "witness", "--property", "entropy")
        assert code == 1 and json.loads(out) == {"as_expected": False}

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_in_a_report_exits_two(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.setattr(cli, "run_witness", lambda *args, **kwargs: {"as_expected": True, "gap": value})
        code, out, err = run_cli(capsys, "witness", "--property", "entropy")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "JSON" in err
        path = tmp_path / "w.json"
        code, out, err = run_cli(capsys, "witness", "--property", "entropy", "--out", str(path))
        assert (code, out) == (2, "") and err.startswith("error:")
        assert not path.exists()


def test_verify_report_schema(capsys, tmp_path):
    out = tmp_path / "r.json"
    run_cli(
        capsys, "verify", "--score", "binary-brier", "--dims", "2",
        "--trials", "60", "--seed", "9", "--out", str(out),
    )
    report = json.loads(out.read_text())
    sub = report["reports"][0]["truthfulness"]
    for key in ("name", "trials", "dims", "verdict", "max_gap", "violations"):
        assert key in sub


@pytest.mark.parametrize("command", [
    ["verify", "--score", "binary-brier", "--dims", "2", "--trials", "10"],
    ["measure", "--state", "STATE", "--trials", "10"],
    ["witness", "--property", "entropy", "--dims", "2", "--trials", "5"],
], ids=["verify", "measure", "witness"])
def test_negative_seed_names_the_option(capsys, tmp_path, command):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(example_mixture_state())))
    argv = [str(state) if a == "STATE" else a for a in command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert err == "error: seed must be at least 0, got -1\n"
    assert out == ""


def test_verify_report_names_its_rng_layout(capsys):
    code, out, _ = run_cli(capsys, "verify", "--score", "binary-brier", "--dims", "2", "--trials", "8", "--seed", "1")
    assert code == 0
    assert json.loads(out)["rng"] == "block-v1"


def test_verify_report_is_written_as_one_json_safe_walk_writes_it(capsys, monkeypatch):
    # a score paying -inf everywhere: every trial is irregular and max_gap stays -inf;
    # the log score is -inf where the Brier score is finite: inf gaps
    neg_inf = QuantumScore(lambda r: (standard_pvm(r.shape[0]), np.full(r.shape[0], -np.inf)), name="neg-inf")
    truth = truthfulness_check(neg_inf, 8, dims=(2,), rng=1)
    equiv = equivalence_check(log_spectral(), projective_brier(), 40, dims=(2,), rng=2)
    assert truth.max_gap == -np.inf and truth.kind_counts == {"irregular": 8}
    assert np.inf in [v["gap"] for v in equiv.violations]
    report = {"score": "neg-inf", "as_expected": True, "reports": [
        {"dim": 2, "truthfulness": {**truth.to_json(), "stream": 0}, "equivalence": {**equiv.to_json(), "stream": 1}},
    ]}
    monkeypatch.setattr(cli, "run_verify", lambda *args, **kwargs: report)
    code, out, _ = run_cli(capsys, "verify", "--score", "binary-brier", "--dims", "2", "--trials", "8")
    assert code == 0
    assert out == json.dumps(json_safe(report), sort_keys=True, separators=(",", ":")) + "\n"
    assert '"-inf"' in out and '"inf"' in out and "Infinity" not in out


def test_repeated_main_calls_match_separate_processes(capsys):
    calls = [
        ["paper-examples"],
        ["verify", "--score", "binary-brier", "--dims", "2", "--trials", "8", "--seed", "1"],
        ["verify", "--score", "nope", "--dims", "2", "--trials", "8"],  # exit 2
        ["witness", "--property", "entropy", "--dims", "2", "--trials", "5", "--seed", "2"],
        ["verify", "--score", "spectral:log", "--dims", "3", "--trials", "12", "--seed", "4"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]
    src = str(Path(qelicit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, (code, out, err) in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-m", "qelicit.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (alone.returncode, alone.stdout) == (code, out), argv
        assert err in alone.stderr, argv  # a separate process may also warn that qelicit was imported first


def test_verify_out_file_holds_the_bytes_of_stdout_on_one_line(capsys, tmp_path):
    argv = ["verify", "--score", "ml:s3", "--dims", "2", "--trials", "40", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "r.json"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert code == 0
    assert path.read_bytes() == out.encode()
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["reports"][0]["truthfulness"]["violations"][0]["rho"]  # stored matrices are in it


class TestReplay:
    # fixed:brier at d = 2, 40 trials and seed 3: every one of the 10 unitary-invariance trials (stream 1) is a
    # violation, and neither the truthfulness (stream 0) nor the implementability trials (stream 2) have one
    ARGV = ["verify", "--score", "fixed:brier", "--dims", "2", "--trials", "40", "--seed", "3"]

    def test_a_violation_prints_as_one_line_of_strict_json(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *self.ARGV, "--replay", "1:9")
        assert (code, err) == (0, "") and out.endswith("\n") and out.count("\n") == 1
        got = json.loads(out)
        assert got == replay_verify("fixed:brier", [2], 40, 3, 1, 9)
        stored = run_verify("fixed:brier", [2], 40, 3)["reports"][0]["unitary_invariance"]["violations"][9]
        assert {k: got[k] for k in stored} == stored
        path = tmp_path / "r.json"
        assert run_cli(capsys, *self.ARGV, "--replay", "1:9", "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("value", ["1", "1:", ":9", "a:0", "1:0:0", "1.0:0", ""])
    def test_a_malformed_value_exits_2(self, capsys, value):
        code, out, err = run_cli(capsys, *self.ARGV, f"--replay={value}")
        assert (code, out) == (2, "")
        assert f"--replay must be STREAM:TRIAL, two integers, got {value!r}" in err

    @pytest.mark.parametrize("value", ["3:0", "-1:0"])
    def test_a_stream_outside_the_runs_checks_exits_2(self, capsys, value):
        code, out, err = run_cli(capsys, *self.ARGV, f"--replay={value}")
        assert (code, out) == (2, "")
        assert f"--replay {value}: stream must be an integer in 0..2, got {value.split(':')[0]}" in err

    @pytest.mark.parametrize("value, bound", [("1:10", "(unitary_invariance, 10 trials) must be an integer in 0..9"),
                                              ("0:40", "(truthfulness, 40 trials) must be an integer in 0..39")])
    def test_a_trial_outside_the_checks_trials_exits_2(self, capsys, value, bound):
        code, out, err = run_cli(capsys, *self.ARGV, f"--replay={value}")
        assert (code, out) == (2, "")
        assert f"--replay {value}: trial of stream {value[0]} {bound}" in err

    @pytest.mark.parametrize("value, check", [("0:0", "truthfulness"), ("2:3", "implementability")])
    def test_a_trial_that_is_not_a_violation_exits_2(self, capsys, value, check):
        code, out, err = run_cli(capsys, *self.ARGV, "--replay", value)
        assert (code, out) == (2, "")
        assert f"--replay {value}: trial {value[2:]} of stream {value[0]} ({check}) is not a violation, gap " in err


@pytest.mark.parametrize("argv", [
    ["verify", "--score", "binary-brier", "--dims", "2", "--trials", "8"],
    ["witness", "--property", "entropy", "--dims", "2", "--trials", "5"],
], ids=["verify", "witness"])
def test_a_csv_out_is_refused_where_only_json_is_written(capsys, tmp_path, argv):
    path = tmp_path / "r.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert f"{argv[0]} writes JSON only" in err and str(path) in err
    assert not path.exists()


def test_profile_ends_with_the_report_write(capsys, tmp_path):
    argv = ["verify", "--score", "ml:s3", "--dims", "2", "--trials", "40", "--seed", "2", "--profile"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    line = err.splitlines()[-1]
    assert line.startswith(f"profile ml:s3 report: {len(out)} bytes encoded and written in ") and line.endswith(" s")
    path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert f"report: {path.stat().st_size} bytes" in err.splitlines()[-1]
