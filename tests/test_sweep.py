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
import math

import numpy as np
import pytest

import oracles
from dtsipbc.cli import main
from dtsipbc import markov
from dtsipbc.markov import AnalysisError, Chain, ChainStack, solve_chain, solve_stack
from dtsipbc.models import bundled_model_names, load_model, model_text
from dtsipbc.netsem import box_of, build_rg
from dtsipbc.opsem import build_ts, leaf_values_of
from dtsipbc.parser import parse_model, parse_static

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
    points = model.sweep_points(ranges)
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
        stack = ChainStack(chains[0].keys, chains[0].tangible, np.stack([c.pm for c in chains]), [], np.zeros((6, 0)))
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
                _, closed = markov.communication_classes(tpm)
                assert closed == oracles.closed_classes(tpm)
                adjacency = markov._adjacency(tpm)
                for comp in closed:
                    period = oracles.class_period(tpm, comp)
                    assert markov._class_period(adjacency, comp) == period
                    periods.add(period)
        assert periods == {1, 2, 3, 4}

    def test_refinement_rounds_match_the_scalar_loop(self):
        # realistic chains converge in the first round; residual targets
        # near or below the rounding level make points refine for several
        # rounds and leave the loop at different rounds
        rng = np.random.default_rng(7)
        for tol in (1e-30, 1e-17, 3e-16, 1e-15):
            for k in (1, 3, 9, 40):
                subs = rng.random((12, k, k)) * 10.0 ** rng.integers(-6, 1, (12, k, k))
                subs /= subs.sum(axis=-1, keepdims=True)
                x, residual = markov._stationary_on_class(subs, tol)
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


class TestCompiledModel:
    @pytest.mark.parametrize("name", bundled_model_names())
    def test_leaf_map(self, name):
        model = load_model(name)
        points = [{}, {"rho": 0.125, "l": 3.5, "chi": 0.75}, {"rho": 0.875, "m": 0.25, "theta": 0.0625, "phi": 0.3}]
        for point in points:
            assert model.leaf_values(point) == leaf_values_of(model.instantiate(point))

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
            pm = readiness.matrices(probs)
            for k in range(5):
                ref = oracles.reweight(ts, {leaf: table[k, leaf - 1] for leaf in leaves})
                want = np.array([t.prob for t in ref.transitions])
                assert np.allclose(probs[k], want, rtol=1e-14, atol=0)
                assert np.allclose(pm[k], ref.pm_matrix(), rtol=1e-14, atol=0)
                assert ((pm[k] > 0) == (ref.pm_matrix() > 0)).all()

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
            systems.append((build_ts(expr, max_states=20_000), leaf_values_of(expr)))
        for ts, leaf_values in systems:
            row = np.array([[leaf_values[leaf] for leaf in range(1, max(leaf_values) + 1)]])
            stack = ChainStack.from_ts(ts, row)
            assert stack.arc_probs[0].tobytes() == np.array([t.prob for t in ts.transitions]).tobytes()
            assert stack.pm[0].tobytes() == ts.pm_matrix().tobytes()
            assert ts.reweight(leaf_values).transitions == ts.transitions
