import json

import numpy as np
import pytest

from qelicit.cli import example_mixture_state, main, paper_example_rows
from qelicit.linalg import matrix_to_json, random_density, random_hermitian


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPaperExamples:
    def test_all_rows_pass(self):
        rows = paper_example_rows()
        assert rows, "no rows produced"
        assert all(r["pass"] for r in rows), [r["name"] for r in rows if not r["pass"]]

    def test_cli_prints_table_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "paper-examples")
        assert code == 0
        assert "standard-basis-probabilities" in out
        assert "FAIL" not in out


class TestVerify:
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

    def test_tol_overrides_parsed(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--score", "binary-brier", "--dims", "2",
            "--trials", "50", "--seed", "1",
            "--tol-overrides", "margin=1e-8,strict_distance=1e-5",
            "--out", str(out),
        )
        assert code == 0

    def test_unknown_tolerance_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--score", "binary-brier", "--dims", "2",
            "--trials", "10", "--tol-overrides", "margn=0.5",
        )
        assert code == 2
        assert out == ""
        for name in ("margn", "margin", "strict_distance", "equiv_tol"):
            assert name in err

    @pytest.mark.parametrize("override", ["equiv_tol=nan", "margin=nan", "margin=inf", "strict_distance=-1"])
    def test_non_finite_or_negative_tolerance_exits_two(self, capsys, override):
        # a NaN tolerance would make its check vacuous, since gap > nan is never true
        code, out, err = run_cli(
            capsys, "verify", "--score", "fixed:brier", "--dims", "2",
            "--trials", "40", "--seed", "1", "--tol-overrides", override,
        )
        assert code == 2
        assert out == ""
        assert override.partition("=")[0] in err

    def test_too_few_trials_exit_two(self, capsys):
        for trials in ("-5", "0", "1"):  # 1 leaves dimension 3 without a trial
            code, out, err = run_cli(
                capsys, "verify", "--score", "spectral:log", "--dims", "2,3", "--trials", trials
            )
            assert code == 2, trials
            assert "trials" in err
            assert out == ""

    def test_dimension_one_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--score", "ml:s3", "--dims", "1", "--trials", "10"
        )
        assert code == 2
        assert "dimension" in err
        assert out == ""

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
        assert "--trials" in err
        assert out == ""

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, _, _ = run_cli(capsys, "measure", "--state", str(path), "--trials", "10")
        assert code == 2


class TestMarketSim:
    def scenario(self, tmp_path, n_trades):
        rng = np.random.default_rng(13)
        doc = {
            "dim": 2,
            "cost": "lmsr",
            "trades": [matrix_to_json(random_hermitian(2, rng=rng)) for _ in range(n_trades)],
            "truth": matrix_to_json(random_density(2, rng=rng)),
        }
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

    def test_missing_truth_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "trades": []}))
        code, _, err = run_cli(capsys, "market-sim", "--scenario", str(path))
        assert code == 2
        assert "malformed" in err


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
        code, out, err = run_cli(
            capsys, "witness", "--property", "entropy", "--dims", "1", "--trials", "10"
        )
        assert code == 2
        assert "dimension" in err
        assert out == ""


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
