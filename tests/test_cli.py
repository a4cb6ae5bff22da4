"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import json

import pytest

from dtsipbc.cli import main
from dtsipbc.models import model_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArtifacts:
    def test_ts_json(self, capsys, tmp_path):
        code, out, err = run(capsys, "ts", "ts_example", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "ts.json").read_text())
        assert len(payload["states"]) == 5
        assert payload["initial"] == 1
        assert "5 states" in err or "states: 5" in err

    def test_ts_dot(self, capsys):
        code, out, _ = run(capsys, "ts", "choice_stoch", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and "->" in out

    def test_box_json_and_dot(self, capsys, tmp_path):
        code, _, err = run(capsys, "box", "shared_memory", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "net.json").read_text())
        assert len(payload["transitions"]) == 7
        assert "safe and clean" in err
        code, out, _ = run(capsys, "box", "sync_pair", "--format", "dot")
        assert code == 0 and "shape=box" in out

    def test_rg_json(self, capsys, tmp_path):
        code, _, _ = run(capsys, "rg", "ts_example", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "rg.json").read_text())
        assert len(payload["states"]) == 5

    def test_solve_json_and_csv(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "shared_memory", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "solve.json").read_text())
        assert len(payload["states"]) == 9
        assert "indices" in payload and "run_through" in payload["indices"]
        assert "index run_through" in err
        code, out, _ = run(capsys, "solve", "shared_memory", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("state,key,kind,")

    def test_solve_quotient(self, capsys):
        code, out, err = run(capsys, "solve", "shared_memory_abstract", "--quotient")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 6

    def test_quotient_artifact(self, capsys, tmp_path):
        code, _, err = run(capsys, "quotient", "shared_memory_abstract", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "quotient.json").read_text())
        assert len(payload["blocks"]) == 6
        assert "blocks: 6" in err

    def test_checkiso_all_models(self, capsys):
        for name in ("ts_example", "choice_imm", "sync_pair", "shared_memory"):
            code, out, _ = run(capsys, "checkiso", name)
            assert code == 0, name
            assert "isomorphic" in out

    def test_checkeq_pair(self, capsys):
        code, out, _ = run(capsys, "checkeq", "ssbsspt_pair")
        assert code == 0
        assert "equivalent" in out


class TestSweep:
    def test_small_grid(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            "shared_memory_abstract",
            "--param",
            "rho=0.2:0.8:0.1",
            "--index",
            "run_through",
            "--out",
            str(tmp_path),
            "--jobs",
            "2",
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("#") and "0.1" in lines[0]
        assert lines[1] == "rho,run_through"
        assert len(lines) == 2 + 7
        assert "index run_through: min" in err

    def test_per_point_files(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "qts_f", "--param", "chi=0.3:0.5:0.1",
            "--index", "return_time", "--out", str(tmp_path), "--per-point",
        )
        # qts_f defines no indices, so ask for one that does not exist
        assert code == 2

    def test_per_point_files_ok(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "shared_memory_abstract", "--param", "rho=0.3:0.5:0.1",
            "--index", "utilization", "--out", str(tmp_path), "--per-point", "--jobs", "1",
        )
        assert code == 0
        points = sorted((tmp_path / "points").glob("point_*.csv"))
        assert len(points) == 3
        assert points[0].read_text().startswith("state,key,kind,")

    def test_scalar_only_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "shared_memory_abstract", "--param", "rho=0.5")
        assert code == 2


class TestExitCodes:
    def test_missing_model(self, capsys):
        code, _, err = run(capsys, "ts", "nonexistent_model")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.dtsi"
        bad.write_text("root = ({a},0.5");
        code, _, err = run(capsys, "ts", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_non_regular_model(self, capsys, tmp_path):
        bad = tmp_path / "irregular.dtsi"
        bad.write_text("root = [({a},0.5) * (({b},0.5)||({c},0.5)) * ({d},0.5)]\n")
        code, _, err = run(capsys, "box", str(bad))
        assert code == 2

    def test_multiple_closed_classes(self, capsys, tmp_path):
        model = tmp_path / "split.dtsi"
        model.write_text(
            "root = [({a},0.5) * ({b},0.5) * Stop][]([({c},0.5) * ({d},0.5) * Stop])\n"
        )
        code, _, err = run(capsys, "solve", str(model))
        assert code == 1
        assert "closed classes" in err

    @pytest.mark.filterwarnings("error")
    def test_underflow_fails_quietly(self, capsys):
        # rho**2 and the squared exit masses underflow: three closed classes,
        # and no numpy warning on stderr
        code, _, err = run(capsys, "solve", "shared_memory_abstract", "--param", "rho=1e-200")
        assert code == 1
        assert err.startswith("error: analysis error") and err.count("\n") == 1, err

    def test_singular_system(self, capsys, tmp_path):
        model = tmp_path / "singular.dtsi"
        model.write_text(
            model_text("shared_memory_abstract").replace("param l = 1", "param l = 1\nparam eps = 1e-170")
            .replace("({m,z1},rho)", "({m,z1},eps)").replace("({m,z2},rho)", "({m,z2},eps)")
        )
        code, _, err = run(capsys, "solve", str(model))
        assert code == 1
        assert err == "error: analysis error: stationary solve failed: singular matrix\n"

    def test_checkeq_rejects(self, capsys, tmp_path):
        model = tmp_path / "pair.dtsi"
        model.write_text("root = ({a},0.5)\npeer = ({a},0.6)\n")
        code, out, _ = run(capsys, "checkeq", str(model))
        assert code == 1
        assert "NOT equivalent" in out

    def test_state_cap(self, capsys):
        code, _, err = run(capsys, "ts", "shared_memory", "--max-states", "3")
        assert code == 1
        assert "limit" in err


class TestInputValidation:
    """Bad input: a one-line message and exit 2, never a traceback."""

    def assert_refused(self, capsys, *argv, code=2):
        got, _, err = run(capsys, *argv)
        assert got == code
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_param_not_a_number(self, capsys):
        self.assert_refused(capsys, "solve", "shared_memory", "--param", "rho=abc")

    @pytest.mark.parametrize("grid", ["rho=0.9:0.1:-0.1", "rho=0.1:0.9:0", "rho=0.1:0.9:x"])
    def test_sweep_step_not_a_positive_number(self, capsys, grid):
        self.assert_refused(capsys, "sweep", "shared_memory_abstract", "--param", grid)

    @pytest.mark.parametrize("route", [(), ("--quotient",), ("--per-point",)], ids=["batched", "quotient", "per_point"])
    def test_sweep_value_out_of_range_at_a_later_point(self, capsys, tmp_path, route):
        # rho = 0.5 is fine; rho = 1.0 is no probability
        self.assert_refused(capsys, "sweep", "shared_memory_abstract", "--param", "rho=0.5:1.5:0.5",
                            "--out", str(tmp_path), *route)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tolerance_not_positive(self, capsys, tol):
        self.assert_refused(capsys, "checkeq", "ssbsspt_pair", "--tol", tol)


class TestIndexFailures:
    """An index undefined on the solution: a one-line message and exit 1."""

    @pytest.fixture(params=["1 / phi[1]", "phi[70]"], ids=["division_by_zero", "state_out_of_range"])
    def model(self, request, tmp_path):
        # state 1 of shared_memory is transient, so phi[1] = 0; it has 9 states
        path = tmp_path / "bad_index.dtsi"
        path.write_text(model_text("shared_memory") + "\nindex z = %s\n" % request.param)
        return str(path)

    def assert_failed(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: analysis error") and err.count("\n") == 1, err
        assert "index z" in err

    def test_solve(self, capsys, model):
        self.assert_failed(capsys, "solve", model)

    def test_sweep(self, capsys, model, tmp_path):
        self.assert_failed(capsys, "sweep", model, "--param", "rho=0.3:0.5:0.1", "--index", "z",
                           "--jobs", "1", "--out", str(tmp_path / "out"))


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("ts", "ts_example"),
        ("box", "shared_memory"),
        ("solve", "shared_memory_abstract"),
        ("quotient", "shared_memory_abstract"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first
