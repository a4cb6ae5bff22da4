"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtsipbc
from dtsipbc import cli
from dtsipbc.cli import main
from dtsipbc.equiv import quotient
from dtsipbc.models import model_text
from dtsipbc.opsem import SemanticsError, build_ts
from dtsipbc.parser import parse_model

from conftest import shm_text


# three and two immediate weights whose synchronized sum passes the float range
THREE_WEIGHTS = "root = ((({a,b},#1e308) || ({a^},#1e308) || ({b^},#1e308)) sy a sy b) rs a rs b\n"
TWO_WEIGHTS = "root = (({a},#1e308) || ({a^},#1e308)) sy a rs a\n"


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

    @pytest.fixture
    def ranged_model(self, tmp_path):
        """shared_memory_abstract with a declared range for rho."""
        path = tmp_path / "ranged.dtsi"
        path.write_text(model_text("shared_memory_abstract").replace("param rho = 0.5", "param rho = 0.2:0.6:0.2"))
        return str(path)

    def sweep_csv(self, capsys, tmp_path, *argv):
        code, _, err = run(capsys, "sweep", *argv, "--index", "utilization", "--out", str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines() if code == 0 else []
        return code, err, lines

    def test_scalar_takes_a_declared_range_off_the_grid(self, capsys, tmp_path, ranged_model):
        code, err, _ = self.sweep_csv(capsys, tmp_path, ranged_model, "--param", "rho=0.5")
        assert code == 2
        assert err == "error: sweep needs at least one ranged parameter (name=start:stop:step)\n"

    def test_every_grid_parameter_has_a_column(self, capsys, tmp_path, ranged_model):
        code, _, lines = self.sweep_csv(capsys, tmp_path, ranged_model, "--param", "l=1:2:1")
        assert code == 0
        assert lines[0] == "# sweep over l,rho; grid steps 1.0,0.2"
        assert lines[1] == "l,rho,utilization"
        assert [tuple(line.split(",")[:2]) for line in lines[2:]] == [
            (l, rho) for rho in ("0.2", "0.4", "0.6") for l in ("1.0", "2.0")
        ]

    def test_scalar_holds_beside_a_declared_range(self, capsys, tmp_path, ranged_model):
        code, _, lines = self.sweep_csv(capsys, tmp_path, ranged_model, "--param", "l=2")
        assert code == 0
        assert lines[:2] == ["# sweep over rho; grid steps 0.2", "rho,utilization"]
        assert len(lines) == 2 + 3

    def test_declared_step_not_positive(self, capsys, tmp_path):
        path = tmp_path / "zero_step.dtsi"
        path.write_text("param rho = 0.1:0.9:0\nroot = ({a},rho)\nindex u = phi[1]\n")
        code, _, err = run(capsys, "sweep", str(path))
        assert code == 2
        assert err == "error: sweep step must be positive\n"


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

    def test_model_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "ts", str(tmp_path))
        assert code == 2
        assert err == "error: cannot read model %s: Is a directory\n" % tmp_path

    def test_model_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.dtsi"
        bad.write_bytes("root = ({a},0.5) // \xe9t\xe9\n".encode("latin-1"))
        code, _, err = run(capsys, "ts", str(bad))
        assert code == 2
        assert err.startswith("error: cannot read model %s: not UTF-8 text" % bad) and err.count("\n") == 1

    def test_out_below_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "somefile"
        blocker.write_text("")
        code, _, err = run(capsys, "ts", "shared_memory", "--out", str(blocker / "x"))
        assert code == 2
        assert err == "error: cannot write %s: Not a directory\n" % (blocker / "x" / "ts.json")

    @pytest.mark.parametrize("command", ["rg", "ts", "solve"])
    def test_weights_summing_past_the_float_range(self, capsys, tmp_path, command):
        # the marking, or state, has no step probabilities: rg refuses it as
        # ts and solve do
        model = tmp_path / "huge.dtsi"
        model.write_text("root = ({a},#1e308)[]({b},#1e308)\n")
        code, _, err = run(capsys, command, str(model), "--out", str(tmp_path / "out"))
        assert (code, err) == (2, "error: the immediate weights of state 1 sum past the float range\n")
        assert not (tmp_path / "out").exists()

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
        # at 1e-200, rho**2 and the squared exit masses underflow: three
        # closed classes; at 1e-160 the exit masses are subnormal, and the
        # mean sojourn and the self-loop over the exit mass overflow to inf:
        # two closed classes; no numpy warning on stderr
        for rho in ("1e-200", "1e-160"):
            code, _, err = run(capsys, "solve", "shared_memory_abstract", "--param", "rho=" + rho)
            assert code == 1
            assert err.startswith("error: analysis error") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [["quotient", "shared_memory"], ["checkeq", "ssbsspt_pair"],
                                      ["solve", "shared_memory", "--quotient"]], ids=["quotient", "checkeq", "solve"])
    @pytest.mark.parametrize("tol", ["1e-320", "inf", "1e999"])
    def test_tolerance_outside_the_normal_range(self, capsys, tmp_path, argv, tol):
        # below the normal range p / tol overflows; an infinite one buckets
        # every probability to 0
        code, out, err = run(capsys, *argv, "--out", str(tmp_path), "--tol", tol)
        assert (code, out) == (2, "")
        assert err == "error: --tol must be finite and at least 2.2250738585072014e-308, got %r\n" % float(tol)
        assert not list(tmp_path.iterdir())

    def test_smallest_normal_tolerance_accepted(self, capsys, tmp_path):
        code, _, err = run(capsys, "quotient", "shared_memory", "--out", str(tmp_path),
                           "--tol", "2.2250738585072014e-308")
        assert (code, err) == (0, "blocks: 9 (from 9 states)\n")

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

    @pytest.mark.parametrize("command", ["ts", "box", "rg", "checkiso", "solve", "quotient"])
    def test_state_cap_on_every_command(self, capsys, command):
        code, _, err = run(capsys, command, "shared_memory", "--max-states", "3")
        assert code == 1
        assert err == "error: state-space limit of 3 exceeded\n"

    def test_long_sequence(self, capsys, tmp_path):
        model = tmp_path / "long.dtsi"
        model.write_text("root = %s\n" % ";".join(["({a},0.5)"] * 400))
        code, _, err = run(capsys, "solve", str(model))
        assert code == 1
        assert err.startswith("error: model nested too deeply") and err.count("\n") == 1, err

    def test_deep_parentheses(self, capsys, tmp_path):
        # the parser keeps one frame per open bracket on an explicit stack
        model = tmp_path / "deep.dtsi"
        model.write_text("root = %s({a},0.5)%s\n" % ("(" * 5000, ")" * 5000))
        for command in ("ts", "checkiso", "solve"):
            code, _, err = run(capsys, command, str(model))
            assert code == 0, (command, err)

    def test_deep_indices(self, capsys, tmp_path):
        # phi[2] is 1: the final state of a single activity absorbs
        model = tmp_path / "indices.dtsi"
        model.write_text("root = ({a},0.5)\nindex nested = %sphi[2]%s\nindex negated = %sphi[2]\nindex summed = %s\n"
                         % ("(" * 5000, ")" * 5000, "-" * 5000, " + ".join(["phi[2]"] * 5000)))
        code, _, err = run(capsys, "solve", str(model))
        assert code == 0
        assert err == "index negated = 1\nindex nested = 1\nindex summed = 5000\n"

    @pytest.mark.parametrize("command, text, which", [
        ("ts", "root = ~({a},0.5)\n", "root"),
        ("checkeq", "root = ({a},0.5)\npeer = _({a},0.5)\n", "peer"),
    ])
    def test_barred_root_or_peer(self, capsys, tmp_path, command, text, which):
        model = tmp_path / "barred.dtsi"
        model.write_text(text)
        code, _, err = run(capsys, command, str(model))
        assert code == 2
        assert err == "error: %s expression carries bars\n" % which

    @pytest.fixture
    def deep_chain(self, tmp_path):
        """A model whose root is an activity under 5,000 restrictions."""
        model = tmp_path / "chain.dtsi"
        model.write_text("root = ({a},0.5)%s\n" % (" rs b" * 5000))
        return str(model)

    @pytest.mark.parametrize("command, transitions", [("box", 1), ("rg", 3)])
    def test_deep_chain_on_the_net_side(self, capsys, deep_chain, command, transitions):
        code, out, _ = run(capsys, command, deep_chain)
        assert code == 0
        assert len(json.loads(out)["transitions"]) == transitions

    def test_deep_chain_in_the_step_semantics(self, capsys, deep_chain):
        # the class tree of the step semantics still recurses once per level
        code, _, err = run(capsys, "ts", deep_chain)
        assert code == 1
        assert err.startswith("error: model nested too deeply") and err.count("\n") == 1, err

    def test_semantics_error_is_an_input_error(self, capsys, monkeypatch):
        def malformed(expr, **kwargs):
            raise SemanticsError("step from state 1 reaches two distinct classes")

        monkeypatch.setattr(cli, "build_ts", malformed)
        code, _, err = run(capsys, "solve", "ts_example")
        assert code == 2
        assert err == "error: step from state 1 reaches two distinct classes\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "root = ({a},1%s/1)\n" % ("0" * 400),
        "root = ({a},%s/%s)\n" % ("1" + "0" * 5000, "3" + "0" * 5000),
        "root = ({a},#1e999)[]({b},#1)\n",
        "param rho = 1%s\nroot = ({a},#rho)[]({b},#1)\n" % ("0" * 5000),
        "root = ({a},#1e308)[]({b},#1e308)\n",
    ], ids=["fraction-too-large", "fraction-too-long", "infinite-weight", "infinite-parameter", "total-overflows"])
    def test_numbers_outside_the_float_range(self, capsys, tmp_path, text):
        # an infinite weight, or a state whose finite weights sum past the
        # largest float, has no step probabilities: one line, no numpy warning
        model = tmp_path / "huge.dtsi"
        model.write_text(text)
        code, _, err = run(capsys, "solve", str(model))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, text, message", [
        ("solve", THREE_WEIGHTS, "the immediate weights of state 1 sum past the float range"),
        ("box", THREE_WEIGHTS, "the immediate weights synchronized on a sum past the float range"),
        ("box", TWO_WEIGHTS, "the immediate weights synchronized on a sum past the float range"),
    ], ids=["three-weights-solve", "three-weights-box", "two-weights-box"])
    def test_synchronized_weights_overflow(self, capsys, tmp_path, command, text, message):
        # math.fsum of the synchronized weights overflows: the weight is inf
        model = tmp_path / "sync.dtsi"
        model.write_text(text)
        code, _, err = run(capsys, command, str(model), "--out", str(tmp_path / "out"))
        assert (code, err) == (2, "error: %s\n" % message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [(), ("--quotient",)], ids=["batched", "quotient"])
    def test_sweep_point_whose_weights_overflow(self, capsys, tmp_path, route):
        # l + m passes the float range from m = 9e307 on, the third point;
        # build_ts refuses the same numbers at the base point
        model = tmp_path / "weights.dtsi"
        model.write_text("param l = 1\nparam m = 1\nroot = ({a},#l)[]({a},#m)\nindex x = phi[1]\n")
        code, _, err = run(capsys, "sweep", str(model), "--param", "l=1e308", "--param", "m=1e307:1.7e308:4e307",
                           *route)
        assert (code, err) == (2, "error: at {'l': 1e+308, 'm': 9e+307}: the immediate weights of state 1 "
                                  "sum past the float range\n")

    @pytest.mark.parametrize("argv, text, message", [
        (["--param", "rho=0.1:inf:0.5"], None, "sweep range 0.1:inf:0.5 is not finite"),
        ([], "param rho = 0:1e999:1\nroot = ({a},rho)\nindex x = phi[1]\n", "sweep range 0.0:inf:1.0 is not finite"),
        (["--param", "rho=0.1:0.2:1e-8"], None, "sweep range 0.1:0.2:1e-08 has more than 1000000 points"),
        (["--param", "rho=0.1:0.2:1e-4", "--param", "l=1:2:1e-3"], None, "sweep grid has more than 1000000 points"),
    ], ids=["infinite-stop", "infinite-stop-in-model", "axis-past-the-cap", "grid-past-the-cap"])
    def test_sweep_range_ends(self, tmp_path, argv, text, message):
        # each used to loop for ever, or to build a grid past any memory
        model = "shared_memory_abstract"
        if text is not None:
            model = str(tmp_path / "range.dtsi")
            Path(model).write_text(text)
        src = str(Path(dtsipbc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "dtsipbc.cli", "sweep", model, *argv], capture_output=True,
                              text=True, timeout=20, env=dict(os.environ, PYTHONPATH=path))
        assert (done.returncode, done.stderr) == (2, "error: %s\n" % message)


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

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_state_cap_not_positive(self, capsys, limit):
        self.assert_refused(capsys, "ts", "ts_example", "--max-states", limit)

    def test_unknown_param_name(self, capsys):
        self.assert_refused(capsys, "solve", "shared_memory", "--param", "rhoo=0.9")

    def test_param_given_twice(self, capsys, tmp_path):
        self.assert_refused(capsys, "sweep", "shared_memory_abstract", "--param", "rho=0.1:0.2:0.1",
                            "--param", "rho=0.3", "--out", str(tmp_path))
        self.assert_refused(capsys, "solve", "shared_memory", "--param", "rho=0.3", "--param", "rho=0.3")

    def test_undeclared_names_the_model_reads(self, capsys, tmp_path):
        # the root reads p and the peer q, neither declared: both may be given
        path = tmp_path / "free.dtsi"
        path.write_text("root = ({a},p)\npeer = ({a},q)\n")
        code, _, err = run(capsys, "checkeq", str(path), "--param", "p=0.5", "--param", "q=0.5")
        assert code == 0, err
        self.assert_refused(capsys, "checkeq", str(path), "--param", "p=0.5", "--param", "r=0.5")

    @pytest.mark.parametrize("command", ["ts", "box", "rg", "checkiso", "solve", "quotient", "checkeq"])
    def test_range_outside_sweep(self, capsys, tmp_path, command):
        # only sweep evaluates a grid; another command would run at the
        # model's own value of rho
        path = tmp_path / "looping.dtsi"
        body = "[({a},rho) * ({b},rho) * Stop]"
        path.write_text("param rho = 0.5\nroot = %s\npeer = %s\n" % (body, body))
        code, _, err = run(capsys, command, str(path), "--param", "rho=0.1:0.9:0.1")
        assert (code, err) == (2, "error: --param rho is a range; ranges belong to sweep\n")

    def test_sweep_index_named_like_a_swept_parameter(self, capsys, tmp_path):
        # its column in sweep.csv would overwrite the parameter's
        path = tmp_path / "clash.dtsi"
        path.write_text(model_text("shared_memory_abstract") + "\nindex rho = phi[1]\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", str(path), "--param", "rho=0.1:0.5:0.2", "--index", "rho",
                           "--index", "availability", "--out", str(out))
        assert (code, err) == (2, "error: index rho has the name of a swept parameter\n")
        assert not out.exists()

    def test_per_point_needs_out(self, capsys):
        self.assert_refused(capsys, "sweep", "shared_memory_abstract", "--param", "rho=0.3:0.5:0.1", "--per-point")


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


class TestCrossSeedDeterminism:
    """Artefacts do not depend on the string hash seed: each command runs in
    fresh processes under two values of ``PYTHONHASHSEED``."""

    COMMANDS = [
        ("ts", "--members", "--param", "rho=0.7"),
        ("solve", "--param", "rho=0.7"),
        ("quotient", "--param", "rho=0.7"),
        ("sweep", "--param", "rho=0.1:0.9:0.2"),
        ("sweep", "--param", "rho=0.1:0.9:0.2", "--quotient"),
        ("sweep", "--param", "rho=0.1:0.9:0.2", "--per-point"),
    ]

    def test_artefacts_identical_across_hash_seeds(self, tmp_path):
        model = tmp_path / "shm3.dtsi"
        model.write_text(shm_text(3, abstract=False) + "index idle = phi[2]\n")
        src = str(Path(dtsipbc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        seeds = ("0", "1")
        for k, (command, *options) in enumerate(self.COMMANDS):
            # the two seeds' runs of one command go side by side
            runs = [subprocess.Popen([sys.executable, "-m", "dtsipbc.cli", command, str(model), *options,
                                      "--out", str(tmp_path / seed / str(k))],
                                     env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                    for seed in seeds]
            for run_ in runs:
                try:
                    _, err = run_.communicate(timeout=120)
                finally:
                    run_.kill()
                assert run_.returncode == 0, err
        first, second = ({str(p.relative_to(tmp_path / seed)): p.read_bytes()
                          for p in sorted((tmp_path / seed).rglob("*")) if p.is_file()} for seed in seeds)
        assert len(first) == 3 + 3 + 5 and first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


class TestScale:
    def test_shm5_solve_finishes(self, tmp_path):
        # the step semantics of shm-5 (113 states) used to take over a
        # minute; it takes about a second now, and the bound sits well
        # below the old time so that a return to it fails
        model = tmp_path / "shm5.dtsi"
        model.write_text(shm_text(5, abstract=True))
        src = str(Path(dtsipbc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "dtsipbc.cli", "solve", str(model)], capture_output=True,
                              text=True, timeout=20, env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["states"]) == 113


# The root's two {a} weights sum exactly to the peer's, and every weight of
# either side sums to 1, so the pair is equivalent in exact arithmetic.  The
# verdicts bucket each aggregated probability as round(p / quantum); the
# root's summed {a} probability and the peer's single one fall on either side
# of a rounding boundary of the default 1e-9 quantum.
ROUNDING_ROOT = ("(({a},#0.3580483968445);({c},0.5)) [] ((({a},#0.1512665346555);({c},0.5))"
                 " [] (({b},#0.4906850685);({c},0.5)))")
ROUNDING_PEER = "(({a},#0.5093149315);({c},0.5)) [] (({b},#0.4906850685);({c},0.5))"
ROUNDING_BUG = "the verdict buckets float sums by round(p / quantum), which splits at a rounding boundary"


# the two {a} steps differ by 2e-4, which a 1e-3 quantum lumps
COARSE_PAIR = "root = (({x},0.5);({a},0.1002);({y},0.5)) [] (({x},0.5);({a},0.1004);({y},0.5))\n"


class TestCoarseTolerance:
    @pytest.mark.parametrize("argv", [["quotient"], ["solve", "--quotient"]], ids=["quotient", "solve"])
    def test_refinement_passes_its_own_check(self, capsys, tmp_path, argv):
        # a block's members are checked at the partition's own coarseness,
        # so the partition that a coarse --tol refines passes the check
        model = tmp_path / "pair.dtsi"
        model.write_text(COARSE_PAIR)
        code, _, err = run(capsys, argv[0], str(model), *argv[1:], "--out", str(tmp_path), "--tol", "1e-3")
        assert code == 0, err
        if argv == ["quotient"]:
            assert "blocks: 4 (from 6 states)" in err


class TestRoundingBoundary:
    def test_coarser_quantum_accepts(self, capsys, tmp_path):
        model = tmp_path / "pair.dtsi"
        model.write_text("root = %s\npeer = %s\n" % (ROUNDING_ROOT, ROUNDING_PEER))
        code, out, _ = run(capsys, "checkeq", str(model), "--tol", "1e-8")
        assert code == 0 and out.startswith("equivalent")
        one = parse_model("root = (({d},0.5);(%s)) [] (({d},0.5);(%s))\n" % (ROUNDING_ROOT, ROUNDING_PEER))
        assert quotient(build_ts(one.instantiate()), quantum=1e-8).size == 4

    def test_coarser_quantum_in_quotient(self, capsys, tmp_path):
        model = tmp_path / "one.dtsi"
        model.write_text("root = (({d},0.5);(%s)) [] (({d},0.5);(%s))\n" % (ROUNDING_ROOT, ROUNDING_PEER))
        code, _, err = run(capsys, "quotient", str(model), "--out", str(tmp_path), "--tol", "1e-8")
        assert code == 0
        assert "blocks: 4 (from 9 states)" in err

    @pytest.mark.xfail(strict=True, reason=ROUNDING_BUG)
    def test_checkeq(self, capsys, tmp_path):
        model = tmp_path / "pair.dtsi"
        model.write_text("root = %s\npeer = %s\n" % (ROUNDING_ROOT, ROUNDING_PEER))
        code, out, _ = run(capsys, "checkeq", str(model))
        assert (code, out.split(":")[0]) == (0, "equivalent")

    @pytest.mark.xfail(strict=True, reason=ROUNDING_BUG)
    def test_quotient(self, capsys, tmp_path):
        # after {d}, the two branches start the root and the peer; those two
        # states are bisimilar, so the quotient has 4 blocks: the initial
        # state, the two starts, the states before {c} and the final ones
        model = tmp_path / "one.dtsi"
        model.write_text("root = (({d},0.5);(%s)) [] (({d},0.5);(%s))\n" % (ROUNDING_ROOT, ROUNDING_PEER))
        code, _, err = run(capsys, "quotient", str(model), "--out", str(tmp_path))
        assert code == 0
        assert "blocks: 4 (from 9 states)" in err
