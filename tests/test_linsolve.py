"""SpanSolver against sympy over Q(c) on random graded systems, and the
grading check on systems that are not graded."""

import pickle
import random

import pytest
import sympy

from conftest import cscalar_to_sympy, random_fraction
from cgaosc.errors import NotGraded
from cgaosc.linsolve import SpanSolver
from cgaosc.scalars import CScalar

C = sympy.Symbol("c")


def graded_system(rng):
    """Random graded system: entry (r, j) = q * c^(p_r - g_j), with b as
    column n.  Returns (cols, b, A, bvec) with A, bvec the sympy matrices."""
    n, m = rng.randint(1, 5), rng.randint(1, 7)
    p = [rng.randint(-3, 3) for _ in range(m)]
    g = [rng.randint(-3, 3) for _ in range(n + 1)]
    density = rng.choice([0.4, 0.7, 1.0])
    q = [[random_fraction(rng) if rng.random() < density else 0
          for _ in range(n)] for _ in range(m)]
    if n > 1 and rng.random() < 0.3:
        # a column that is a combination of the others at c = 1
        k = rng.randrange(n)
        lam = [random_fraction(rng) for _ in range(n)]
        for row in q:
            row[k] = sum(lam[j] * row[j] for j in range(n) if j != k)
    if m > 1 and rng.random() < 0.3:
        # a row that is a combination of the others at c = 1
        r = rng.randrange(m)
        lam = [random_fraction(rng) for _ in range(m)]
        q[r] = [sum(lam[i] * q[i][j] for i in range(m) if i != r)
                for j in range(n)]
    kind = rng.choice(["in_span", "random", "extra_rows"])
    if kind == "in_span":
        xi = [random_fraction(rng) for _ in range(n)]
        beta = [sum(a * x for a, x in zip(row, xi)) for row in q]
    else:
        beta = [random_fraction(rng) for _ in range(m)]
    if kind == "extra_rows":
        # rows present only in b
        for _ in range(rng.randint(1, 2)):
            p.append(rng.randint(-3, 3))
            q.append([0] * n)
            beta.append(random_fraction(rng) or 1)
    cols = [{r: CScalar.c_power(p[r] - g[j], row[j])
             for r, row in enumerate(q) if row[j]} for j in range(n)]
    b = {r: CScalar.c_power(p[r] - g[n], beta[r])
         for r in range(len(q)) if beta[r]}
    A = sympy.Matrix([[sympy.Rational(row[j]) * C ** (p[r] - g[j])
                       for j in range(n)] for r, row in enumerate(q)])
    bvec = sympy.Matrix([sympy.Rational(beta[r]) * C ** (p[r] - g[n])
                         for r in range(len(q))])
    return cols, b, A, bvec


def combine(cols, xs):
    out = {}
    for col, x in zip(cols, xs):
        for key, s in col.items():
            out[key] = out.get(key, CScalar.zero()) + s * x
    return {k: v for k, v in out.items() if v}


class TestRandomGraded:
    def test_rank_and_solution_match_sympy(self):
        rng = random.Random(5)
        seen = {"deficient": 0, "consistent": 0, "inconsistent": 0}
        for _ in range(60):
            cols, b, A, bvec = graded_system(rng)
            solver = SpanSolver(cols)
            rank = A.rank(simplify=True)
            assert solver.rank() == rank
            seen["deficient"] += rank < len(cols)
            xs = solver.solve(b)
            assert sum(1 for x in xs if x) <= rank
            try:
                sol, params = A.gauss_jordan_solve(bvec)
            except ValueError:
                seen["inconsistent"] += 1
                assert combine(cols, xs) != b
                continue
            seen["consistent"] += 1
            assert combine(cols, xs) == b
            if not params:
                for x, want in zip(xs, sol):
                    assert sympy.cancel(cscalar_to_sympy(x) - want) == 0
        assert all(count >= 5 for count in seen.values()), seen


class TestNotGraded:
    def test_rank_at_c_one_differs(self):
        # [[1, 1], [c, 1]] has rank 2 over Q(c) (det c - 1) but rank 1 at
        # c = 1: the grading check must refuse it before any rank is read
        one, c = CScalar.one(), CScalar.c()
        cols = [{0: one, 1: c}, {0: one, 1: one}]
        assert sympy.Matrix([[1, 1], [C, 1]]).rank() == 2
        with pytest.raises(NotGraded):
            SpanSolver(cols).rank()
        with pytest.raises(NotGraded):
            SpanSolver(cols).nullity()
        with pytest.raises(NotGraded):
            SpanSolver(cols).solve({0: one})

    def test_non_monomial_entry_is_named(self):
        one, c = CScalar.one(), CScalar.c()
        with pytest.raises(NotGraded) as info:
            SpanSolver([{0: one}, {0: one, 1: one + c}]).rank()
        assert (info.value.key, info.value.column) == (1, 1)
        assert info.value.entry == one + c
        assert "row 1, column 1" in str(info.value)
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    def test_non_monomial_rhs_is_named(self):
        one, c = CScalar.one(), CScalar.c()
        with pytest.raises(NotGraded) as info:
            SpanSolver([{0: one}]).solve({0: one + c})
        assert (info.value.key, info.value.column) == (0, 1)
