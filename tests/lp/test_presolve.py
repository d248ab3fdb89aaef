"""Tests for LP presolve reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LPInfeasibleError
from repro.lp import LinearProgram, LPStatus
from repro.lp.presolve import presolve, solve_with_presolve


class TestReductions:
    def test_fixed_variable_substituted(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=3.0, upper=3.0)
        y = lp.variable("y", upper=10.0)
        lp.add_constraint(x + y <= 8)
        lp.minimize(-y)
        reduced, restore = presolve(lp)
        assert reduced.num_variables == 1
        assert restore.fixed == {0: 3.0}
        res = solve_with_presolve(lp)
        assert res["x"] == pytest.approx(3.0)
        assert res["y"] == pytest.approx(5.0)

    def test_singleton_equality_fixes(self):
        lp = LinearProgram()
        x = lp.variable("x", upper=10.0)
        y = lp.variable("y", upper=10.0)
        lp.add_constraint(2 * x == 4)
        lp.add_constraint(x + y <= 5)
        lp.minimize(-x - y)
        reduced, restore = presolve(lp)
        assert restore.fixed == {0: pytest.approx(2.0)}
        res = solve_with_presolve(lp)
        assert res["x"] == pytest.approx(2.0)
        assert res["y"] == pytest.approx(3.0)

    def test_singleton_inequality_tightens(self):
        lp = LinearProgram()
        x = lp.variable("x", upper=100.0)
        lp.add_constraint(x <= 7)
        lp.maximize(x)
        reduced, restore = presolve(lp)
        assert restore.stats.tightened_bounds >= 1
        assert solve_with_presolve(lp).objective == pytest.approx(7.0)

    def test_redundant_row_dropped(self):
        lp = LinearProgram()
        x = lp.variable("x", upper=1.0)
        y = lp.variable("y", upper=1.0)
        lp.add_constraint(x + y <= 100)  # can never bind
        lp.maximize(x + y)
        reduced, restore = presolve(lp)
        assert reduced.num_constraints == 0
        assert restore.stats.dropped_rows == 1

    def test_infeasible_singleton_detected(self):
        lp = LinearProgram()
        x = lp.variable("x", upper=1.0)
        lp.add_constraint(x == 5)
        lp.minimize(x)
        with pytest.raises(LPInfeasibleError):
            presolve(lp)
        assert solve_with_presolve(lp).status is LPStatus.INFEASIBLE

    def test_infeasible_constant_row(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=2.0, upper=2.0)
        lp.add_constraint(x <= 1)
        lp.minimize(x)
        with pytest.raises(LPInfeasibleError):
            presolve(lp)

    def test_crossed_bounds_detected(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=0.0, upper=10.0)
        lp.add_constraint(x <= 3)
        lp.add_constraint(-x <= -5)  # x >= 5
        lp.minimize(x)
        with pytest.raises(LPInfeasibleError):
            presolve(lp)


class TestEquivalence:
    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_presolved_optimum_matches(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        lp = LinearProgram()
        x0 = rng.uniform(0, 4, size=n)
        xs = []
        for i in range(n):
            if rng.random() < 0.3:
                # some variables arrive pre-fixed
                xs.append(lp.variable(f"x{i}", lower=float(x0[i]), upper=float(x0[i])))
            else:
                xs.append(lp.variable(f"x{i}", upper=float(x0[i] + rng.uniform(1, 4))))
        A = rng.uniform(-2, 2, size=(m, n))
        b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
        for r in range(m):
            expr = xs[0] * float(A[r, 0])
            for i in range(1, n):
                expr = expr + xs[i] * float(A[r, i])
            lp.add_constraint(expr <= float(b[r]))
        c = rng.uniform(-2, 2, size=n)
        obj = xs[0] * float(c[0])
        for i in range(1, n):
            obj = obj + xs[i] * float(c[i])
        lp.minimize(obj)

        plain = lp.solve()
        pre = solve_with_presolve(lp)
        assert plain.ok and pre.ok
        assert pre.objective == pytest.approx(plain.objective, abs=1e-7)
        # Expanded solution must be feasible for the original model.
        assert np.all(A @ pre.x <= b + 1e-6)

    def test_allocation_lp_with_presolve(self):
        """Presolve the faithful allocation LP: flows of zero-capacity
        principals get fixed away."""
        from repro.agreements import AgreementTopology
        from repro.lp.expr import LinExpr

        S = np.array([[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]], dtype=float)
        system = AgreementTopology(["a", "b", "c"], S).view(np.array([8.0, 0.0, 0.0]))
        # Recreate the reduced allocation LP manually and presolve it.
        lp = LinearProgram()
        U = system.u(None)
        ds = [
            lp.variable(f"d{i}", lower=0.0,
                        upper=float(min(U[i, 2], system.V[i])) if i != 2 else 0.0)
            for i in range(3)
        ]
        theta = lp.variable("theta", lower=0.0)
        lp.add_constraint(ds[0] + ds[1] + ds[2] == 2.0)
        T = system.coefficients()
        for i in range(2):
            drop = ds[i] * 1.0
            for k in range(3):
                if k != i and T[k, i] != 0.0:
                    drop = drop + ds[k] * float(T[k, i])
            lp.add_constraint(drop <= theta)
        lp.minimize(LinExpr({3: 1.0}, 0.0))
        plain = lp.solve()
        pre = solve_with_presolve(lp)
        assert pre.objective == pytest.approx(plain.objective, abs=1e-8)
        reduced, restore = presolve(lp)
        assert restore.stats.fixed_variables >= 2  # d1, d2 have zero bounds
