"""Parameter sweeps: the batched route against the per-point reference.

The default ``dtsipbc sweep`` compiles the model and the base transition
system once and solves every grid point in one stack of matrices.  These
tests hold it to ``oracles.sweep_rows``, which instantiates, reweights and
solves one point after another with the scalar solver loops.  Index values
must agree to within 1e-10 relative to the reference (``run_through``
reaches 8e6 at the stiff end of the grid); failures must come at the same
point with the same message.
"""

import csv
import dataclasses
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtsipbc
import oracles
from dtsipbc.cli import main
from dtsipbc.equiv import quotient
from dtsipbc import cli, export, markov
from dtsipbc.markov import AnalysisError, Chain, solve_chain, solve_stack
from dtsipbc.models import bundled_model_names, load_model, model_text
from dtsipbc.netsem import box_of, build_rg
from dtsipbc.opsem import build_ts
from dtsipbc.parser import grid_point, grid_size, parse_model, parse_static

from conftest import INDEX_FORMS, make_rng, random_regular_text, shm_text

pytestmark = pytest.mark.filterwarnings("error")


def cli_sweep(capsys, tmp_path, model, *params):
    argv = ["sweep", str(model), "--out", str(tmp_path)]
    for p in params:
        argv += ["--param", p]
    code = main(argv)
    err = capsys.readouterr().err
    if code != 0:
        return code, err, None
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return code, err, [{k: float(v) for k, v in row.items()} for row in rows]


def reference(model, ranges):
    points = oracles.sweep_points(model, ranges)
    base = build_ts(model.instantiate(points[0]))
    return points, oracles.sweep_rows(model, base, dict(model.indices), points)


def assert_agree(got_rows, points, want_rows, swept):
    assert len(got_rows) == len(want_rows)
    for got, point, want in zip(got_rows, points, want_rows):
        assert [got[p] for p in swept] == [point[p] for p in swept]
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-10 * max(1.0, abs(value)), (point, name, got[name], value)


class TestAgainstPerPoint:
    def test_benchmark_grid(self, capsys, tmp_path):
        model = load_model("shared_memory_abstract")
        code, _, rows = cli_sweep(capsys, tmp_path, "shared_memory_abstract", "rho=0.0005:0.9995:0.0005")
        assert code == 0
        points, want = reference(model, {"rho": (0.0005, 0.9995, 0.0005)})
        assert len(points) == 1999 and points[0]["rho"] == 0.0005 and points[-1]["rho"] == 0.9995
        assert_agree(rows, points, want, ["rho"])

    def test_two_dimensional_grid(self, capsys, tmp_path):
        # l is the immediate weight, so the vanishing states' sums change too
        model = load_model("shared_memory")
        code, _, rows = cli_sweep(capsys, tmp_path, "shared_memory", "rho=0.05:0.95:0.1", "l=0.25:4:0.25")
        assert code == 0
        points, want = reference(model, {"rho": (0.05, 0.95, 0.1), "l": (0.25, 4.0, 0.25)})
        assert len(points) == 10 * 16
        assert_agree(rows, points, want, ["l", "rho"])

    def test_every_index_form(self, capsys, tmp_path):
        text = model_text("shared_memory_abstract") + "\n".join(INDEX_FORMS) + "\n"
        path = tmp_path / "indices.dtsi"
        path.write_text(text)
        code, _, rows = cli_sweep(capsys, tmp_path, path, "rho=0.01:0.99:0.07", "l=0.5:2:0.5")
        assert code == 0
        points, want = reference(parse_model(text), {"rho": (0.01, 0.99, 0.07), "l": (0.5, 2.0, 0.5)})
        assert all(math.isfinite(v) for row in want for v in row.values())
        assert_agree(rows, points, want, ["l", "rho"])

    @pytest.mark.parametrize("variant", ["closed_classes", "singular", "index_undefined", "solvable"])
    def test_tiny_scalar_changes_the_support(self, capsys, tmp_path, variant):
        # eps * eps underflows to zero, so steps the base system keeps get
        # probability zero; each variant fails (or not) as the reference does
        text = model_text("shared_memory_abstract").replace("param l = 1", "param l = 1\nparam eps = 1e-170")
        edits = {
            "closed_classes": [("P1 = [({x1},rho)", "P1 = [({x1},eps)"), ("({a,x1^,x2^},rho)", "({a,x1^,x2^},eps)")],
            "singular": [("({m,z1},rho)", "({m,z1},eps)"), ("({m,z2},rho)", "({m,z2},eps)")],
            "index_undefined": [("({z1^},rho)", "({z1^},eps)"), ("({m,z1},rho)", "({m,z1},eps)")],
            "solvable": [("(({r},rho);({d,y1}", "(({r},eps);({d,y1}")],
        }[variant]
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "tiny.dtsi"
        path.write_text(text)
        code, err, rows = cli_sweep(capsys, tmp_path, path, "rho=0.1:0.9:0.1")
        try:
            points, want = reference(parse_model(text), {"rho": (0.1, 0.9, 0.1)})
        except AnalysisError as exc:
            assert variant != "solvable"
            assert (code, err) == (1, "error: %s\n" % exc)
        else:
            assert variant == "solvable" and code == 0
            assert_agree(rows, points, want, ["rho"])

    def test_analysis_error_before_a_bad_value(self, capsys, tmp_path):
        # the chain has several closed classes at every point and rho = 1.0,
        # the third point, is out of range: the first point's analysis error
        # comes first
        text = (model_text("shared_memory_abstract").replace("param l = 1", "param l = 1\nparam eps = 1e-170")
                .replace("P1 = [({x1},rho)", "P1 = [({x1},eps)").replace("({a,x1^,x2^},rho)", "({a,x1^,x2^},eps)"))
        path = tmp_path / "split.dtsi"
        path.write_text(text)
        code, err, _ = cli_sweep(capsys, tmp_path, path, "rho=0.5:1.5:0.5")
        with pytest.raises(AnalysisError) as exc:
            reference(parse_model(text), {"rho": (0.5, 1.5, 0.5)})
        assert (code, err) == (1, "error: %s\n" % exc.value)
        assert "closed communication classes" in err and "'rho': 0.5" in err

    def test_index_failures(self, capsys, tmp_path):
        # state 1 is transient (phi[1] = 0) and there is no state 70
        for index in ("1 / phi[1]", "phi[2] / (phi[70] + 1)", "phi[3] + 1 / (phi[2] - phi[2])"):
            text = model_text("shared_memory") + "\nindex z = %s\n" % index
            path = tmp_path / "bad.dtsi"
            path.write_text(text)
            code, err, _ = cli_sweep(capsys, tmp_path, path, "rho=0.3:0.5:0.1")
            with pytest.raises(AnalysisError) as exc:
                reference(parse_model(text), {"rho": (0.3, 0.5, 0.1)})
            assert (code, err) == (1, "error: %s\n" % exc.value)

    def test_infinite_operands_stay_quiet(self, capsys, tmp_path):
        # state 2 is absorbing and tangible, so its sojourn time and variance
        # are infinite and phi is zero elsewhere: inf * 0 and inf - inf give
        # nan, as with Python floats, and numpy warns of nothing
        text = model_text("choice_stoch") + "index z = sj[1] * phi[2] + sj[2] * phi[1]\nindex w = var[2] - var[2]\n"
        path = tmp_path / "absorbing.dtsi"
        path.write_text(text)
        code, err, rows = cli_sweep(capsys, tmp_path, path, "rho=0.1:0.5:0.2")
        assert code == 0 and "Warning" not in err
        points, want = reference(parse_model(text), {"rho": (0.1, 0.5, 0.2)})
        assert len(rows) == len(want) == 3
        assert all(math.isnan(row[name]) and math.isnan(value) for row, at in zip(rows, want) for name, value in at.items())

    def test_repeat_runs_identical(self, capsys, tmp_path):
        texts = []
        for k in range(2):
            code, _, _ = cli_sweep(capsys, tmp_path / str(k), "shared_memory_abstract", "rho=0.001:0.999:0.002")
            assert code == 0
            texts.append((tmp_path / str(k) / "sweep.csv").read_text())
        assert texts[0] == texts[1]


class TestStack:
    def test_mixed_supports_solve_as_one_at_a_time(self):
        # rho = 1e-200 underflows to three closed classes; the stack holds it
        # among ordinary points and in a support group of its own
        model = load_model("shared_memory_abstract")
        base = build_ts(model.instantiate())
        chains = [Chain.from_ts(base.reweight(model.leaf_values({"rho": rho})))
                  for rho in (0.3, 1e-200, 0.9999, 1e-200, 0.0001, 0.5)]
        stack = dataclasses.replace(chains[0], probs=np.concatenate([c.probs for c in chains]))
        solved = solve_stack(stack)
        for k, chain in enumerate(chains):
            try:
                want = oracles.solve_chain(chain)
            except AnalysisError as exc:
                assert str(solved.errors[k]) == str(exc)
                assert solved.errors[k].closed_classes == exc.closed_classes
                continue
            assert solved.errors[k] is None
            for got, ref in ((solved.phi[k], want.phi), (solved.psi[k], want.psi), (solved.psi_star[k], want.psi_star),
                             (solved.sojourn.variance[k], want.sojourn.variance)):
                assert got.tobytes() == ref.tobytes()
        assert [e is None for e in solved.errors] == [True, False, True, False, True, True]

    def test_support_groups_need_only_the_full_stack(self):
        # grids of one support, and stacks that split: rho = 1e-200
        # underflows to other supports, rho = 1e-160 leaves subnormal
        # probabilities, l past 4e283 drops an arc
        model = load_model("shared_memory_abstract")
        base = build_ts(model.instantiate())
        leaves, _ = model.leaf_grid(model.sweep_grid({"rho": (0.001, 0.999, 0.033)}))
        stacks = [Chain.from_ts(base, leaves).matrices()]
        mixed = [model.leaf_values({"rho": rho}) for rho in (0.3, 1e-200, 0.9999, 1e-160, 1e-200, 0.0001, 0.5)]
        stacks.append(Chain.from_ts(base, np.array([[v[leaf] for leaf in sorted(v)] for v in mixed])).matrices())
        for text, overrides in ((LOOP_OR_LEAVE, {"l": (1e283, 1e284, 1e282)}),
                                (model_text("shared_memory"), {"rho": (0.05, 0.95, 0.1), "l": (0.25, 4.0, 0.25)})):
            model = parse_model(text)
            leaves, _ = model.leaf_grid(model.sweep_grid(overrides))
            stacks.append(Chain.from_ts(build_ts(model.instantiate()), leaves).matrices())
        splits = 0
        for pm in stacks:
            with np.errstate(over="ignore"):  # a self-loop over a subnormal exit mass
                want = oracles.support_groups(pm, markov._embedded(pm, oracles.off_diagonal_sums(pm)))
            assert [g.tolist() for g in markov._support_groups(pm)] == [g.tolist() for g in want]
            splits += len(want) > 1
        assert splits == 2

    def test_communication_structure(self):
        # sparse random supports, with empty rows first, last and between;
        # and supports whose edges only go from level k to level k + 1 mod d
        # (state i has level i mod d), along a ring where the levels allow,
        # so that closed classes have periods up to d; against reachability
        # sets and a walk over each row's nonzeros
        rng = np.random.default_rng(11)
        periods = set()
        for n in (1, 2, 5, 12, 30):
            for density, d in ((0.05, 1), (0.15, 1), (0.4, 1), (0.3, 2), (0.4, 3), (0.6, 4)):
                level = np.arange(n) % d
                up = (level[:, None] + 1) % d == level[None, :]
                edges = up & (rng.random((n, n)) < density)
                if d > 1:
                    ring = (np.arange(n), (np.arange(n) + 1) % n)
                    edges[ring] = up[ring]
                tpm = rng.random((n, n)) * edges
                if d == 1:
                    tpm[rng.integers(0, n, 2)] = 0.0
                adjacency = markov._adjacency(tpm)
                _, closed = markov._classes(adjacency)
                assert closed == oracles.closed_classes(tpm)
                for comp in closed:
                    period = oracles.class_period(tpm, comp)
                    assert markov._class_period(adjacency, comp) == period
                    periods.add(period)
        assert periods == {1, 2, 3, 4}

    def test_refinement_rounds_match_the_scalar_loop(self, monkeypatch):
        # realistic chains converge in the first round; residual targets
        # near or below the rounding level make points refine for several
        # rounds and leave the loop at different rounds
        rng = np.random.default_rng(7)
        for tol in (1e-30, 1e-17, 3e-16, 1e-15):
            monkeypatch.setattr(markov, "_RESIDUAL_TOL", tol)
            for k in (1, 3, 9, 40):
                subs = rng.random((12, k, k)) * 10.0 ** rng.integers(-6, 1, (12, k, k))
                subs /= subs.sum(axis=-1, keepdims=True)
                x, residual = markov._stationary_on_class(subs)
                for p in range(12):
                    want_x, want_residual = oracles.stationary_on_class(subs[p], tol)
                    assert x[p].tobytes() == want_x.tobytes() and residual[p] == want_residual

    def test_solve_chain_is_the_scalar_solver(self):
        # bundled roots at three points, stiff ends included, shm-3 (more
        # states than numpy's pairwise sums take one by one) and random terms
        chains = []
        for abstract in (True, False):
            model = parse_model(shm_text(3, abstract))
            for rho in (0.5, 0.001, 0.999):
                chains.append(Chain.from_ts(build_rg(box_of(model.instantiate({"rho": rho})))))
        for name in bundled_model_names():
            model = load_model(name)
            base = build_ts(model.instantiate())
            for p in ({}, {"rho": 0.9999, "chi": 0.2}, {"rho": 1e-200, "l": 3.0}):
                chains.append(Chain.from_ts(base.reweight(model.leaf_values(p))))
        rng = make_rng(5150)
        for _ in range(40):
            chains.append(Chain.from_ts(build_ts(parse_static(random_regular_text(rng)), max_states=20_000)))
        for chain in chains:
            try:
                want = oracles.solve_chain(chain)
            except AnalysisError as exc:
                with pytest.raises(AnalysisError) as got:
                    solve_chain(chain)
                assert str(got.value) == str(exc) and got.value.closed_classes == exc.closed_classes
                continue
            got = solve_chain(chain)
            for field in ("dtmc", "edtmc", "psi", "psi_star", "phi"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            for field in ("average", "variance", "loop_factor"):
                assert getattr(got.sojourn, field).tobytes() == getattr(want.sojourn, field).tobytes(), field
            assert (got.closed_class, got.edtmc_periodic, got.dtmc_periodic) == (
                want.closed_class, want.edtmc_periodic, want.dtmc_periodic)


# a vanishing state that loops through {a} with weight l or leaves for
# good through {c} with weight m; from l = 4.1e283 on, m / (l + m)
# underflows to zero and the chain has two closed classes
LOOP_OR_LEAVE = ("param l = 1\nparam m = 1e-40\n"
                 "root = [({s},0.5) * (({a},#l);({b},0.5)) * (({c},#m);({d},0.5))]\nindex y = phi[1]\n")


# a model whose quotient has 4, 4, 3, 4 and 4 blocks over rho = 0.1 ... 0.5:
# at rho = 0.3 both branches step alike and their middle states merge
PARTITION_CHANGES = ("param rho = 0.1\n"
                     "root = [({c},0.5) * ((({a},0.5);({b},rho)) [] (({a},0.5);({b},0.3))) * Stop]\n"
                     "index wait = phi[2] + phi[3]\n")


class TestBlocks:
    """The sweep solves and writes the grid a block of points at a time.
    With blocks of seven points it writes what one block writes, byte for
    byte, and fails at the same point with the same message, leaving no
    file behind."""

    @staticmethod
    def seven_point_blocks(monkeypatch, model):
        """Make a sweep of ``model`` solve seven points at a time."""
        size = len(build_ts(load_model(str(model)).instantiate()).states)
        monkeypatch.setattr(cli, "_SWEEP_BUDGET", 7 * size * size)

    @staticmethod
    def run_sweep(capsys, out, model, argv):
        shutil.rmtree(out, ignore_errors=True)
        code = main(["sweep", str(model), "--out", str(out), *argv])
        captured = capsys.readouterr()
        files = {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("model, argv, code", [
        ("shared_memory_abstract", ["--param", "rho=0.01:0.99:0.01", "--per-point"], 0),
        ("shared_memory", ["--param", "rho=0.05:0.95:0.1", "--param", "l=0.25:4:0.25"], 0),
        (LOOP_OR_LEAVE, ["--param", "l=1e283:1e284:1e282"], 1),
        ("shared_memory_abstract", ["--param", "rho=0.9:1.05:0.001"], 2),
        (LOOP_OR_LEAVE, ["--param", "l=1e306:1.7e308:1e306", "--param", "m=1e307"], 2),
    ], ids=["per-point", "two-axes", "analysis-error", "value-out-of-range", "weights-overflow"])
    def test_blocks_write_what_one_block_writes(self, capsys, tmp_path, monkeypatch, model, argv, code):
        if model == LOOP_OR_LEAVE:
            (tmp_path / "model.dtsi").write_text(model)
            model = tmp_path / "model.dtsi"
        out = tmp_path / "out"
        whole = self.run_sweep(capsys, out, model, argv)
        self.seven_point_blocks(monkeypatch, model)
        blocks = self.run_sweep(capsys, out, model, argv)
        assert blocks == whole and whole[0] == code
        assert whole[2].startswith("error: ") == bool(code)

    def test_failing_points(self, capsys, tmp_path):
        # the failing points lie past the first blocks: the analysis error
        # at point 32 of 91, and the input errors at points 101 and 170
        path = tmp_path / "model.dtsi"
        path.write_text(LOOP_OR_LEAVE)
        assert main(["sweep", str(path), "--param", "l=1e283:1e284:1e282"]) == 1
        assert main(["sweep", "shared_memory_abstract", "--param", "rho=0.9:1.05:0.001"]) == 2
        assert main(["sweep", str(path), "--param", "l=1e306:1.7e308:1e306", "--param", "m=1e307"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: analysis error at {'l': 4.1e+283, 'm': 1e-40}: chain has 2 closed communication classes; "
            "expected one",
            "error: probability must lie strictly in (0;1), got 1.0",
            "error: at {'l': 1.7e+308, 'm': 1e+307}: the immediate weights of state 2 sum past the float range",
        ]

    @pytest.mark.parametrize("model, argv, code, message", [
        ("shared_memory_abstract", ["--param", "rho=0.9:1.05:0.001"], 2,
         "error: probability must lie strictly in (0;1), got 1.0\n"),
        (LOOP_OR_LEAVE, ["--param", "l=1e283:1e284:1e282"], 1,
         "error: analysis error at {'l': 4.1e+283, 'm': 1e-40}: chain has 2 closed communication classes; "
         "expected one\n"),
    ], ids=["input-error", "analysis-error"])
    @pytest.mark.parametrize("route, to_out", [
        ((), True), (("--per-point",), True), (("--quotient",), True), ((), False), (("--quotient",), False),
    ], ids=["batched", "per-point", "quotient", "batched-stdout", "quotient-stdout"])
    def test_late_failure_writes_nothing(self, capsys, tmp_path, monkeypatch, model, argv, code, message, route,
                                         to_out):
        # the failing point lies in the 5th (analysis) or the 15th (input)
        # block of seven, after earlier blocks were solved and staged
        if model == LOOP_OR_LEAVE:
            (tmp_path / "model.dtsi").write_text(model)
            model = tmp_path / "model.dtsi"
        self.seven_point_blocks(monkeypatch, model)
        out = tmp_path / "out"
        out.mkdir()
        where = ["--out", str(out)] if to_out else []
        assert main(["sweep", str(model), *argv, *route, *where]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert list(out.iterdir()) == []

    def test_unmade_out_directory_stays_unmade(self, capsys, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["sweep", "shared_memory_abstract", "--param", "rho=0.9:1.05:0.001", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_per_point_matrices(self, capsys, tmp_path, monkeypatch):
        # each point's solution sums its own matrices from its arcs: the
        # bits of the whole grid's stack and of the embedded formula on it,
        # and of the point's reweighted system; the point files hold the
        # state tables of these solutions
        self.seven_point_blocks(monkeypatch, "shared_memory_abstract")
        results = []
        write = export.states_csv

        def states_csv(result):
            results.append(result)
            return write(result)

        monkeypatch.setattr(export, "states_csv", states_csv)
        assert main(["sweep", "shared_memory_abstract", "--param", "rho=0.001:0.999:0.033", "--per-point",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        model = load_model("shared_memory_abstract")
        grid = model.sweep_grid({"rho": (0.001, 0.999, 0.033)})
        base = build_ts(model.instantiate(grid_point(grid, 0)))
        leaves, _ = model.leaf_grid(grid)
        pm = Chain.from_ts(base, leaves).matrices()
        embedded = markov._embedded(pm, oracles.off_diagonal_sums(pm))
        files = sorted((tmp_path / "points").iterdir())
        assert len(results) == len(files) == len(pm) == grid_size(grid) > 7 * 4
        for k, (result, path) in enumerate(zip(results, files)):
            assert path.name == "point_%05d.csv" % (k + 1)
            assert path.read_text() == write(result)
            assert result.dtmc.tobytes() == pm[k].tobytes()
            assert result.edtmc.tobytes() == embedded[k].tobytes() == oracles.edtmc_tpm(result.chain).tobytes()
            ts = base.reweight(dict(enumerate(leaves[k].tolist(), 1)))
            assert result.dtmc.tobytes() == oracles.pm_matrix(ts).tobytes()

    @staticmethod
    def model_path(tmp_path, model):
        """A bundled model's name, or a file of the model text given."""
        if "\n" not in model:
            return model
        (tmp_path / "model.dtsi").write_text(model)
        return tmp_path / "model.dtsi"

    @pytest.mark.parametrize("route, model, rho, sizes", [
        (route, model, rho, sizes)
        for model, rho, sizes in [("shared_memory_abstract", (0.05, 0.95, 0.05), [6] * 19),
                                  (PARTITION_CHANGES, (0.1, 0.5, 0.1), [4, 4, 3, 4, 4])]
        for route in [("--quotient",), ("--per-point", "--quotient")]
    ], ids=["quotient", "per-point-quotient", "quotient-partition-changes", "per-point-quotient-partition-changes"])
    def test_quotient_points_lump_as_their_systems(self, capsys, tmp_path, monkeypatch, route, model, rho, sizes):
        # each point of a block's chain is lumped as the base system
        # reweighted to that point is: the same index and state-table bits,
        # over 19 points in blocks of seven, and over 5 points whose
        # partition changes at the third
        model = self.model_path(tmp_path, model)
        self.seven_point_blocks(monkeypatch, model)
        out = tmp_path / "out"
        assert main(["sweep", str(model), "--param", "rho=%s:%s:%s" % rho, *route, "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        model = load_model(str(model))
        base = build_ts(model.instantiate())
        points = oracles.sweep_points(model, {"rho": rho})
        assert len(rows) == len(points) == len(sizes)
        for k, (row, point) in enumerate(zip(rows, points), 1):
            lumped = quotient(base.reweight(model.leaf_values(point))).chain()
            assert lumped.size == sizes[k - 1]
            result = solve_chain(lumped)
            assert {name: row[name] for name in model.indices} == {
                name: repr(markov.evaluate_index(expr, result)) for name, expr in model.indices.items()}
            if "--per-point" in route:
                assert (out / "points" / ("point_%05d.csv" % k)).read_text() == export.states_csv(result)
        assert ("--per-point" in route) == (out / "points").is_dir()

    @pytest.mark.parametrize("model, argv, stacks", [
        ("shared_memory_abstract", ["--param", "rho=0.05:0.95:0.05"], [7, 7, 5]),
        ("shared_memory_abstract", ["--param", "rho=0.05:0.95:0.05", "--quotient"], [7, 7, 5]),
        (PARTITION_CHANGES, ["--param", "rho=0.1:0.5:0.1"], [5]),
        (PARTITION_CHANGES, ["--param", "rho=0.1:0.5:0.1", "--quotient"], [2, 1, 2]),
    ], ids=["plain", "one-partition", "plain-partition-changes", "partition-changes"])
    def test_one_solve_per_run(self, capsys, tmp_path, monkeypatch, model, argv, stacks):
        # every block of seven points is one stack, and with --quotient each
        # run of its points that share a partition: the 19 points of
        # shared_memory_abstract lump by one, and the model whose partition
        # changes at its third point lumps in runs of 2, 1 and 2 points
        model = self.model_path(tmp_path, model)
        self.seven_point_blocks(monkeypatch, model)
        solved = []

        def counted(chain):
            solved.append(len(chain.probs))
            return solve_stack(chain)

        monkeypatch.setattr(cli, "solve_stack", counted)
        assert main(["sweep", str(model), *argv, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert solved == stacks  # the points of each solve_stack call


def test_memory_does_not_grow_with_the_grid(tmp_path):
    # two fresh processes, each reporting its own peak resident set size:
    # only the grid columns grow with the grid, about 40 bytes a point (the
    # peaks were about 45 MiB apart when the whole grid was held at once)
    script = ("import resource, sys\nfrom dtsipbc.cli import main\nassert main(sys.argv[1:]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    src = str(Path(dtsipbc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peaks = []
    for k, grid in enumerate(["rho=0.001:0.999:0.001", "rho=2e-05:0.99999:2e-05"]):
        done = subprocess.run([sys.executable, "-c", script, "sweep", "shared_memory_abstract", "--param", grid,
                               "--out", str(tmp_path / str(k))], env=env, capture_output=True, text=True, check=True)
        peaks.append(int(done.stdout.splitlines()[-1]) / 1024)  # ru_maxrss is in KiB
    assert len((tmp_path / "1" / "sweep.csv").read_text().splitlines()) == 2 + 49_999
    assert abs(peaks[1] - peaks[0]) < 8, peaks


class TestCompiledModel:
    @pytest.mark.parametrize("name", bundled_model_names())
    def test_leaf_map(self, name):
        model = load_model(name)
        points = [{}, {"rho": 0.125, "l": 3.5, "chi": 0.75}, {"rho": 0.875, "m": 0.25, "theta": 0.0625, "phi": 0.3}]
        for point in points:
            assert model.leaf_values(point) == oracles.leaf_values_of(model.instantiate(point))

    def test_out_of_range_values(self):
        model = load_model("shared_memory_abstract")
        for point in ({"rho": 0.5, "l": 0.0}, {"rho": 1.5, "l": 1.0}, {"rho": 0.0, "l": -2.0}):
            with pytest.raises(ValueError) as want:
                model.instantiate(point)
            with pytest.raises(ValueError) as got:
                model.leaf_values(point)
            assert str(got.value) == str(want.value)

    def test_readiness_matches_reweight(self):
        # against the oracle's reweight, which shares no probability code
        # with the program; bundled roots and random terms (some with
        # three-way synchronized immediate activities, whose weights are
        # fsums of three leaves)
        rng = make_rng(777)
        systems = [build_ts(load_model(name).instantiate()) for name in bundled_model_names()]
        systems += [build_ts(parse_static(random_regular_text(rng, max_activities=8, max_sync=3)), max_states=20_000)
                    for _ in range(60)]
        values = np.random.default_rng(3)
        for ts in systems:
            leaves = sorted({leaf for t in ts.transitions for u in t.step for leaf, _ in u.leaves})
            width = max(leaves, default=0)
            immediate = {leaf for t in ts.transitions for u in t.step if u.immediate for leaf, _ in u.leaves}
            table = values.uniform(0.01, 0.99, (5, width))
            for leaf in immediate:
                table[:, leaf - 1] *= 5
            readiness = ts.readiness()
            probs = readiness.probabilities(table)
            pm = Chain.from_ts(ts, table).matrices()
            for k in range(5):
                ref = oracles.reweight(ts, {leaf: table[k, leaf - 1] for leaf in leaves})
                want = np.array([t.prob for t in ref.transitions])
                assert np.allclose(probs[k], want, rtol=1e-14, atol=0)
                assert np.allclose(pm[k], oracles.pm_matrix(ref), rtol=1e-14, atol=0)
                assert ((pm[k] > 0) == (oracles.pm_matrix(ref) > 0)).all()

    def test_stack_at_the_base_row_is_build_ts(self):
        # the stack, reweight and build_ts share one readiness route, so at
        # the system's own values the stack gives build_ts's bits
        systems = []
        for name in bundled_model_names():
            model = load_model(name)
            for point in ({}, {"rho": 0.7}, {"rho": 0.999}):
                point = {k: v for k, v in point.items() if k in model.parameter_names()}
                systems.append((build_ts(model.instantiate(point)), model.leaf_values(point)))
        rng = make_rng(4242)
        for _ in range(40):
            expr = parse_static(random_regular_text(rng, max_activities=8, max_sync=3))
            systems.append((build_ts(expr, max_states=20_000), oracles.leaf_values_of(expr)))
        for ts, leaf_values in systems:
            row = np.array([[leaf_values[leaf] for leaf in range(1, max(leaf_values) + 1)]])
            stack = Chain.from_ts(ts, row)
            assert stack.probs[0].tobytes() == np.array([t.prob for t in ts.transitions]).tobytes()
            assert stack.matrices()[0].tobytes() == oracles.pm_matrix(ts).tobytes()
            assert ts.reweight(leaf_values).transitions == ts.transitions


def _ranges(model):
    """A range per parameter the root reads: probabilities inside (0;1),
    weights above 0."""
    immediate = {source: imm for imm, source in model.leaf_sources() if isinstance(source, str)}
    return {name: (0.5, 4.0, 0.5) if immediate[name] else (0.05, 0.95, 0.1) for name in sorted(immediate)}


class TestLeafGrid:
    """``ModelFile.leaf_grid`` against binding and checking one leaf of one
    point at a time (``oracles.leaf_grid``): the same bits, and the same
    failing point and message."""

    def assert_grid(self, model, overrides):
        points = oracles.sweep_points(model, overrides)
        grid = model.sweep_grid(overrides)
        got_points = [grid_point(grid, k) for k in range(grid_size(grid))]
        assert got_points == points and [list(p) for p in got_points] == [list(p) for p in points]
        got, error = model.leaf_grid(grid)
        rows, want = oracles.leaf_grid(model, points)
        assert got.shape == (len(rows), len(model.leaf_sources()))
        assert got.tobytes() == np.array(rows, dtype=float).tobytes()
        assert (type(error), str(error)) == (type(want), str(want))
        # the one-point case, at the first points and at the failing one
        for point in points[:2] + points[len(rows):len(rows) + 1]:
            try:
                want_values = oracles.leaf_values(model, point)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    model.leaf_values(point)
                assert str(raised.value) == str(exc)
            else:
                assert model.leaf_values(point) == want_values
        return len(points), len(rows), want

    @pytest.mark.parametrize("name", bundled_model_names())
    def test_one_and_two_axes(self, name):
        model = load_model(name)
        ranges = _ranges(model)
        for param, rng in ranges.items():
            assert self.assert_grid(model, {param: rng})[2] is None
        if len(ranges) >= 2:
            first, second = list(ranges)[:2]
            size, valid, error = self.assert_grid(model, {first: ranges[first], second: ranges[second]})
            assert error is None and size == valid > 10

    def test_unbound_parameter(self):
        # l's leaves come after rho's: every point fails, at the first one
        model = parse_model(model_text("shared_memory_abstract").replace("param l = 1\n", ""))
        size, valid, error = self.assert_grid(model, {"rho": (0.1, 0.9, 0.2)})
        assert (size, valid, str(error)) == (5, 0, "unbound parameter 'l'")

    @pytest.mark.parametrize("rng, at", [((1.0, 1.4, 0.2), 0), ((0.2, 1.8, 0.4), 2), ((0.2, 1.0, 0.2), 4)],
                             ids=["first", "middle", "last"])
    def test_value_out_of_range(self, rng, at):
        for name in ("shared_memory_abstract", "shared_memory"):
            size, valid, error = self.assert_grid(load_model(name), {"rho": rng, "l": (0.5, 1.5, 0.5)})
            assert valid == 3 * at and size > valid
            assert str(error) == "probability must lie strictly in (0;1), got 1.0"

    def test_weight_out_of_range(self):
        # rho, the model's first parameter, varies slowest: l = -0.5 fails
        # at the first point, and rho = 1.2 after six good ones
        model = load_model("shared_memory")
        size, valid, error = self.assert_grid(model, {"l": (-0.5, 1.0, 0.5), "rho": (0.3, 0.6, 0.3)})
        assert (size, valid, str(error)) == (8, 0, "immediate weight must be positive and finite, got -0.5")
        size, valid, error = self.assert_grid(model, {"l": (0.5, 1.0, 0.5), "rho": (0.3, 1.2, 0.3)})
        assert (size, valid, str(error)) == (8, 6, "probability must lie strictly in (0;1), got 1.2")

    @pytest.mark.parametrize("text", [model_text("shared_memory_abstract"), model_text("shared_memory"),
                                      "param rho = 0.5\nparam l = 1\nroot = ({a},#l);({b},rho)\n"],
                             ids=["shared_memory_abstract", "shared_memory", "weight_first"])
    def test_first_bad_leaf_of_a_point(self, text):
        # rho = 1.0 and l = -1, or l unbound, at the first point: the leaf
        # that comes first in leaf order names the error
        model = parse_model(text)
        kinds = [source for _, source in model.leaf_sources() if source in ("rho", "l")]
        first = "probability must lie" if kinds[0] == "rho" else "immediate weight must"
        _, valid, error = self.assert_grid(model, {"rho": (1.0, 1.5, 0.5), "l": -1.0})
        assert valid == 0 and str(error).startswith(first) and "rho" in kinds and "l" in kinds
        unbound = parse_model(text.replace("param l = 1\n", ""))
        _, valid, error = self.assert_grid(unbound, {"rho": (1.0, 1.5, 0.5)})
        assert valid == 0 and str(error) == ("probability must lie strictly in (0;1), got 1.0" if kinds[0] == "rho"
                                             else "unbound parameter 'l'")

    def test_infinite_weight(self):
        model = load_model("shared_memory_abstract")
        size, valid, error = self.assert_grid(model, {"rho": (0.1, 0.9, 0.2), "l": math.inf})
        assert (size, valid, str(error)) == (5, 0, "immediate weight must be positive and finite, got inf")


# values that print, compare or tie in unusual ways
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-05, 1e16, 0.1, 1 / 3, 12.5, -2.0, 5e-324,
            1.7976931348623157e308, 123456789.0]


class TestColumns:
    """The columnar ``sweep_csv`` and extrema lines against one ``csv`` row
    and one dictionary per point, and ``min``/``max`` over tuples."""

    def cases(self):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            points = int(rng.integers(1, 12))
            swept = ["l", "rho"][:int(rng.integers(1, 3))]
            # few distinct values, so that values and grid tuples tie often
            pool = [_SPECIAL[k] for k in rng.choice(len(_SPECIAL), int(rng.integers(1, 5)))]
            coordinates = [0.0, -0.0, 0.5, 1e-05, 1e16]
            columns = {p: [coordinates[k] for k in rng.integers(0, len(coordinates), points)] for p in swept}
            names = ["a", "b", "c"]
            for name in names:
                columns[name] = [pool[k] for k in rng.integers(0, len(pool), points)]
            rows = [{name: columns[name][k] for name in columns} for k in range(points)]
            yield swept, names, columns, rows

    def test_csv(self):
        for swept, names, columns, rows in self.cases():
            for note in ("", "sweep over %s" % ",".join(swept)):
                assert export.sweep_csv(swept, names, columns, header_note=note) == oracles.sweep_csv(
                    swept, names, rows, header_note=note)

    def test_extrema(self):
        lines = 0
        for swept, names, columns, rows in self.cases():
            extrema = cli._Extrema(swept, names)
            extrema.add(columns)
            got = extrema.lines()
            assert got == oracles.sweep_extrema(swept, names, rows)
            lines += len(got)
        assert lines > 500

    def test_extrema_a_block_at_a_time(self):
        # the extrema lines of a sweep written in blocks: the same ties,
        # however the points are cut into blocks
        rng = np.random.default_rng(7)
        for swept, names, columns, rows in self.cases():
            points = len(rows)
            cuts = sorted(rng.choice(np.arange(1, points), int(rng.integers(0, points)), replace=False).tolist())
            extrema = cli._Extrema(swept, names)
            for lo, hi in zip([0] + cuts, cuts + [points]):
                extrema.add({name: column[lo:hi] for name, column in columns.items()})
            assert extrema.lines() == oracles.sweep_extrema(swept, names, rows)

    def test_two_axis_sweep(self, capsys, tmp_path):
        # rho, the model's first parameter, varies slowest; the columns and
        # the grid tuples go in name order
        code, err, rows = cli_sweep(capsys, tmp_path, "shared_memory", "rho=0.1:0.9:0.2", "l=1:3:1")
        assert code == 0
        model = load_model("shared_memory")
        points = oracles.sweep_points(model, {"rho": (0.1, 0.9, 0.2), "l": (1.0, 3.0, 1.0)})
        assert [(row["l"], row["rho"]) for row in rows] == [(p["l"], p["rho"]) for p in points]
        names = sorted(model.indices)
        head = (tmp_path / "sweep.csv").read_text().splitlines()[:2]
        assert head == ["# sweep over l,rho; grid steps 1.0,0.2", ",".join(["l", "rho"] + names)]
        assert err.splitlines() == oracles.sweep_extrema(["l", "rho"], names, rows)
