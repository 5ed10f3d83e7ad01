import math
from pathlib import Path

import numpy as np
import pytest

import daflow
import daflow.algebra as da


def poly_from_coeffs(ctx, rng, max_degree=None):
    """Random polynomial, optionally restricted to a lower total degree."""
    coeffs = rng.normal(size=ctx.size)
    if max_degree is not None:
        coeffs = coeffs * (ctx.degrees <= max_degree)
    return da.DAScalar(ctx, coeffs)


def embed(p, target_ctx):
    """Re-express a polynomial in a higher-order context."""
    out = da.DAScalar(target_ctx)
    for exps, c in p.terms.items():
        out.coeffs[target_ctx.index_of(exps)] = c
    return out


class TestMakeVariable:
    def test_paper_prior_center(self):
        ctx = da.AlgebraContext(2, 3)
        x = da.make_variable(ctx, -3.5, 0)
        assert x.terms == {(0, 0): -3.5, (1, 0): 1.0}

    def test_zero_center(self):
        ctx = da.AlgebraContext(1, 1)
        assert da.make_variable(ctx, 0.0, 0).terms == {(1,): 1.0}

    def test_evaluate_at_zero_returns_center(self):
        ctx = da.AlgebraContext(3, 2)
        for c in (-3.5, 0.0, 12.25):
            v = da.make_variable(ctx, c, 1)
            assert da.evaluate(v, np.zeros(3)) == c

    def test_identity_recovery(self):
        ctx = da.AlgebraContext(2, 4)
        v = da.make_variable(ctx, 1.5, 1)
        assert da.evaluate(v, [0.3, -0.7]) == 1.5 - 0.7

    def test_index_out_of_range(self):
        ctx = da.AlgebraContext(2, 2)
        with pytest.raises(ValueError):
            da.make_variable(ctx, 0.0, 2)


class TestRingOps:
    def test_binomial(self):
        ctx = da.AlgebraContext(1, 2)
        one_plus = da.make_variable(ctx, 1.0, 0)
        assert (one_plus * one_plus).terms == {(0,): 1.0, (1,): 2.0, (2,): 1.0}

    def test_truncation_drops_high_degree(self):
        ctx = da.AlgebraContext(1, 1)
        one_plus = da.make_variable(ctx, 1.0, 0)
        assert (one_plus * one_plus).terms == {(0,): 1.0, (1,): 2.0}

    def test_mul_by_zero(self):
        ctx = da.AlgebraContext(2, 3)
        a = da.make_variable(ctx, 2.0, 0)
        zero = da.DAScalar(ctx)
        assert (a * zero).terms == {}

    def test_add_sub_scale(self):
        ctx = da.AlgebraContext(2, 2)
        a = da.make_variable(ctx, 1.0, 0)
        b = da.make_variable(ctx, -2.0, 1)
        s = a + b
        assert s.terms == {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0}
        assert (s - b).terms == a.terms
        assert (a * 3.0).terms == {(0, 0): 3.0, (1, 0): 3.0}

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(11)
        ctx = da.AlgebraContext(3, 4)
        for _ in range(25):
            a, b, c = (poly_from_coeffs(ctx, rng) for _ in range(3))
            np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)
            np.testing.assert_allclose((a + b).coeffs, (b + a).coeffs)
            np.testing.assert_allclose(
                ((a * b) * c).coeffs, (a * (b * c)).coeffs, rtol=1e-10, atol=1e-12
            )

    def test_context_mismatch(self):
        a = da.make_variable(da.AlgebraContext(2, 2), 0.0, 0)
        b = da.make_variable(da.AlgebraContext(2, 3), 0.0, 0)
        with pytest.raises(ValueError, match="context mismatch"):
            a + b

    def test_scalar_interop_and_division(self):
        ctx = da.AlgebraContext(1, 3)
        x = da.make_variable(ctx, 2.0, 0)
        assert ((x + 1.0) - 1.0).terms == x.terms
        assert (2.0 * x / 2.0).terms == x.terms
        # the algebra divides by numbers and float arrays only
        for divide in (lambda: 1.0 / x, lambda: x / x, lambda: np.ones(1) / x):
            with pytest.raises(TypeError):
                divide()


class TestIntrinsics:
    def test_sqrt_series(self):
        ctx = da.AlgebraContext(1, 2)
        s = da.sqrt(da.make_variable(ctx, 1.0, 0))
        assert s.terms == {(0,): 1.0, (1,): 0.5, (2,): -0.125}

    @pytest.mark.parametrize("name,bad_center", [
        ("sqrt", -1.0), ("sqrt", 0.0), ("rsqrt", 0.0), ("rsqrt", -0.5),
    ])
    def test_domain_errors(self, name, bad_center):
        ctx = da.AlgebraContext(1, 2)
        with pytest.raises(da.DomainError):
            getattr(da, name)(da.make_variable(ctx, bad_center, 0))

    @pytest.mark.parametrize("name,fn,center", [
        ("sqrt", math.sqrt, 2.2),
        ("rsqrt", lambda v: 1.0 / math.sqrt(v), 0.8),
    ])
    def test_order_of_consistency(self, name, fn, center):
        # halving the deviation must shrink the mismatch by ~2^(k+1)
        k = 4
        ctx = da.AlgebraContext(1, k)
        p = getattr(da, name)(da.make_variable(ctx, center, 0))
        d = 0.1
        err = abs(da.evaluate(p, [d]) - fn(center + d))
        err_half = abs(da.evaluate(p, [d / 2]) - fn(center + d / 2))
        assert err_half <= err / 2 ** (k + 1) * 4 + 1e-15

    def test_rsqrt_is_the_reciprocal_of_sqrt(self):
        ctx = da.AlgebraContext(2, 8)
        s = da.DAScalar(ctx, 0.1 * np.random.default_rng(30).normal(size=ctx.size))
        s.coeffs[0] = 2.3
        r = da.rsqrt(s)
        # exact in the truncated algebra up to rounding: r^2 s = 1
        np.testing.assert_allclose((r * r * s).coeffs, da.constant(ctx, 1.0).coeffs,
                                   rtol=0.0, atol=1e-14)

    def test_rsqrt_on_floats(self):
        v = np.array([0.25, 2.0, 7.5])
        np.testing.assert_array_equal(da.rsqrt(v), 1.0 / np.sqrt(v))
        assert da.rsqrt(4.0) == 0.5
        assert daflow.rsqrt is da.rsqrt and "rsqrt" in da.__all__

    @pytest.mark.parametrize("name", ["rsqrt", "sqrt"])
    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_intrinsic_equals_plain_horner(self, name, shape):
        # the in-place constant update against acc * p + c on the same shape
        ctx = da.AlgebraContext(2, 6)
        rng = np.random.default_rng(31)
        a = da.DAScalar(ctx, 0.2 * rng.normal(size=shape + (ctx.size,)))
        a.coeffs[..., 0] = rng.uniform(0.5, 2.0, size=shape)
        before = a.coeffs.copy()
        got = getattr(da, name)(a)
        np.testing.assert_array_equal(a.coeffs, before)
        series = np.array([getattr(da, f"_series_{name}")(c, ctx.max_order)
                           for c in np.ravel(a.constant)]).T.reshape((-1,) + shape)
        p = a - a.constant
        acc = da.constant(ctx, series[-1])
        for c in series[-2::-1]:
            acc = acc * p + c
        np.testing.assert_array_equal(got.coeffs, acc.coeffs)


class TestEvaluate:
    def test_constant_part(self):
        ctx = da.AlgebraContext(2, 3)
        p = da.make_variable(ctx, 4.0, 0) * da.make_variable(ctx, -1.0, 1)
        assert da.evaluate(p, np.zeros(2)) == -4.0
        assert p.constant == -4.0

    def test_length_mismatch(self):
        ctx = da.AlgebraContext(2, 2)
        with pytest.raises(ValueError, match="length"):
            da.evaluate(da.make_variable(ctx, 0.0, 0), [1.0, 2.0, 3.0])

    def test_evaluate_many_matches_single(self):
        rng = np.random.default_rng(3)
        ctx = da.AlgebraContext(3, 3)
        p = poly_from_coeffs(ctx, rng)
        devs = rng.normal(size=(20, 3))
        batch = da.evaluate_many(p, devs)
        singles = [da.evaluate(p, d) for d in devs]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    @pytest.mark.parametrize("n,k", [(10, 2), (2, 8), (3, 5)])
    def test_evaluate_many_of_each_monomial(self, n, k):
        # the ladder against the power product of each exponent row
        ctx = da.AlgebraContext(n, k)
        devs = np.random.default_rng(4).uniform(-1.5, 1.5, size=(30, n))
        basis = da.DAScalar(ctx, np.eye(ctx.size))
        want = np.prod(devs[:, None, :] ** ctx.exponents, axis=-1)
        np.testing.assert_allclose(da.evaluate_many(basis, devs), want, rtol=1e-14)

    @pytest.mark.parametrize("devs", [np.zeros((4, 2)), np.zeros(3)])
    def test_evaluate_many_refuses_wrong_width(self, devs):
        p = da.make_variable(da.AlgebraContext(3, 2), 1.0, 0)
        with pytest.raises(ValueError, match=r"deviation block must be \(N, 3\)"):
            da.evaluate_many(p, devs)


class TestTruncationIndicator:
    def test_refuses_wrong_width(self):
        # an affine map reads zero, but only on a block of the right width
        for order in (2, 1):
            vec = da.identity_map(da.AlgebraContext(3, order), [0.0, 0.0, 0.0])
            with pytest.raises(ValueError, match=r"deviation block must be \(N, 3\)"):
                da.truncation_indicator(vec, np.zeros((4, 2)))

    def test_norm_of_top_degree_terms(self):
        ctx = da.AlgebraContext(2, 3)
        rng = np.random.default_rng(5)
        comps = [poly_from_coeffs(ctx, rng) for _ in range(2)]
        vec = da.stack(comps, 0)
        devs = rng.normal(size=(7, 2))
        top = [da.DAScalar(ctx, c.coeffs * (ctx.degrees == 3)) for c in comps]
        expected = np.linalg.norm(
            np.stack([da.evaluate_many(t, devs) for t in top], axis=1), axis=1)
        np.testing.assert_allclose(da.truncation_indicator(vec, devs), expected,
                                   rtol=1e-12)

    def test_affine_map_reads_zero(self):
        ctx = da.AlgebraContext(2, 1)
        vec = da.identity_map(ctx, [1.0, 2.0])
        out = da.truncation_indicator(vec, np.full((4, 2), 100.0))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_single_polynomial(self):
        # a single polynomial is a one-component map
        ctx = da.AlgebraContext(2, 3)
        p = poly_from_coeffs(ctx, np.random.default_rng(6))
        devs = np.random.default_rng(7).normal(size=(5, 2))
        np.testing.assert_array_equal(da.truncation_indicator(p, devs),
                                      da.truncation_indicator(da.stack([p], 0), devs))


class TestCompose:
    def test_identity_map_is_neutral(self):
        rng = np.random.default_rng(8)
        ctx = da.AlgebraContext(2, 3)
        center = np.array([1.0, -2.0])
        m = da.stack([poly_from_coeffs(ctx, rng) for _ in range(2)], 0)
        ident = da.identity_map(ctx, center)
        out = da.compose(m, ident)
        np.testing.assert_allclose(out.coeffs, m.coeffs, atol=1e-14)

    def test_substitution_example(self):
        # outer d0^2 applied to inner c + 2 d0 gives 4 d0^2
        ctx = da.AlgebraContext(1, 2)
        c = 1.7
        d0 = da.make_variable(ctx, 0.0, 0)
        outer = da.stack([d0 * d0], 0)
        inner = da.stack([c + 2.0 * d0], 0)
        assert da.compose(outer, inner)[0].terms == {(2,): 4.0}

    def test_evaluation_oracle_on_random_polynomials(self):
        # exact whenever combined degree stays within the truncation order
        rng = np.random.default_rng(9)
        ctx = da.AlgebraContext(2, 6)
        for _ in range(10):
            center = rng.normal(size=2)
            outer = da.stack([poly_from_coeffs(ctx, rng, max_degree=2) for _ in range(2)], 0)
            inner_comps = [poly_from_coeffs(ctx, rng, max_degree=3) for _ in range(2)]
            for comp, c in zip(inner_comps, center):
                comp.coeffs[0] = c
            inner = da.stack(inner_comps, 0)
            combined = da.compose(outer, inner)
            for _ in range(5):
                d = rng.normal(size=2)
                direct = da.evaluate(outer, da.evaluate(inner, d) - inner.constant)
                np.testing.assert_allclose(da.evaluate(combined, d), direct,
                                           rtol=1e-9, atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(10)
        ctx = da.AlgebraContext(2, 5)

        def centered_map(center_out):
            comps = [poly_from_coeffs(ctx, rng, max_degree=2) for _ in range(2)]
            for comp, c in zip(comps, center_out):
                comp.coeffs[0] = c
            return comps

        cA = rng.normal(size=2)
        cB = rng.normal(size=2)
        a = da.stack(centered_map(rng.normal(size=2)), 0)
        b = da.stack(centered_map(cA), 0)
        c = da.stack(centered_map(cB), 0)
        left = da.compose(da.compose(a, b), c)
        right = da.compose(a, da.compose(b, c))
        np.testing.assert_allclose(left.coeffs, right.coeffs, rtol=1e-9, atol=1e-10)

    def test_dimension_mismatch(self):
        ctx = da.AlgebraContext(2, 2)
        outer = da.identity_map(ctx, [0.0, 0.0])
        inner = da.stack([da.make_variable(ctx, 0.0, 0)], 0)
        with pytest.raises(ValueError, match="components"):
            da.compose(outer, inner)


class TestDump:
    def test_golden_quadratic_map(self):
        ctx = da.AlgebraContext(2, 2)
        d0 = da.make_variable(ctx, 0.0, 0)
        d1 = da.make_variable(ctx, 0.0, 1)
        base = 1.0 + d0 + 0.5 * d1
        m = da.stack([base * base, d0 * d1], 0)
        expected = (Path(__file__).parent / "data" / "quadratic_map.txt").read_text()
        assert da.dump(m) == expected

    def test_prune_threshold(self):
        ctx = da.AlgebraContext(1, 1)
        p = da.DAScalar(ctx, np.array([1.0, 1e-15]))
        assert da.dump(da.stack([p], 0)) == "0, 1, 0\n"
        # a single polynomial dumps as component 0
        assert da.dump(p) == "0, 1, 0\n"

    def test_graded_lex_term_order(self):
        ctx = da.AlgebraContext(2, 2)
        keys = list(da.DAScalar(ctx, np.ones(ctx.size)).terms)
        assert keys == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


CTX3 = da.AlgebraContext(2, 3)
D0, D1 = (da.make_variable(CTX3, 0.0, i) for i in range(2))


@pytest.mark.parametrize("run,expected,match", [
    (lambda: iter(D0), TypeError, "iteration over a single polynomial"),
    (lambda: D0 + object(), TypeError, r"for \+: 'DAScalar' and 'object'"),
    (lambda: D0 - object(), TypeError, "for -: 'DAScalar' and 'object'"),
    (lambda: object() - D0, TypeError, "for -: 'object' and 'DAScalar'"),
    (lambda: object() * D0, TypeError, r"for \*: 'object' and 'DAScalar'"),
    (lambda: D0 @ object(), TypeError, "for @: 'DAScalar' and 'object'"),
    (lambda: (-(1.0 + 2.0 * D0)).terms, {(0, 0): -1.0, (1, 0): -2.0}, None),
    (lambda: repr((1.0 + D0 + D1) * (1.0 + D0 + D1) * (1.0 + D0 + D1)),
     "<DAScalar 1 + 3*d0 + 3*d1 + 3*d0^2 + 6*d0*d1 + 3*d1^2 + ...>", None),
    (lambda: repr(da.DAScalar(CTX3)), "<DAScalar 0>", None),
    (lambda: repr(da.DAScalar(CTX3, np.zeros((2, CTX3.size)))),
     "<DAScalar shape=(2,) ctx=AlgebraContext(n_vars=2, max_order=3)>", None),
    # an order-1 identity after an order-3 inner map keeps the inner map's affine part
    (lambda: [c.terms for c in da.compose(
        da.identity_map(da.AlgebraContext(2, 1), [1.0, -2.0]),
        da.stack([1.0 + D0 + D1 * D1, -2.0 + 3.0 * D1 + D0 * D1 * D1], 0),
    )], [{(0, 0): 1.0, (1, 0): 1.0}, {(0, 0): -2.0, (0, 1): 3.0}], None),
    (lambda: da.dump(da.stack([D0, da.DAScalar(CTX3)], 0)), "0, 1, 1 0\n", None),
], ids=["iter-single", "add-object", "sub-object", "rsub-object", "rmul-object",
        "matmul-object", "neg", "repr-scalar", "repr-zero", "repr-array",
        "compose-lower-order-outer", "dump-zero-component"])
def test_edge_paths(run, expected, match):
    """Operator fallbacks, reprs and the rarer branches
    of compose and dump: an exception type and message, or a value."""
    if match is None:
        assert run() == expected
    else:
        with pytest.raises(expected, match=match):
            run()


class TestContext:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            da.AlgebraContext(0, 2)
        with pytest.raises(ValueError):
            da.AlgebraContext(2, 0)

    def test_basis_size(self):
        # C(n + k, k) monomials
        assert da.AlgebraContext(10, 2).size == 66
        assert da.AlgebraContext(2, 8).size == 45


class TestEvaluationHomomorphism:
    def test_mul_exact_within_budget(self):
        rng = np.random.default_rng(12)
        ctx = da.AlgebraContext(2, 6)
        a = poly_from_coeffs(ctx, rng, max_degree=3)
        b = poly_from_coeffs(ctx, rng, max_degree=3)
        d = rng.normal(size=2)
        lhs = da.evaluate(a * b, d)
        rhs = da.evaluate(a, d) * da.evaluate(b, d)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_mul_truncation_remainder_structure(self):
        # the discarded part of a truncated product has total degree >= k+1,
        # which is exactly the O(|d|^(k+1)) evaluation mismatch
        rng = np.random.default_rng(13)
        k = 4
        ctx = da.AlgebraContext(2, k)
        hi = da.AlgebraContext(2, 2 * k)
        for _ in range(10):
            a = poly_from_coeffs(ctx, rng)
            b = poly_from_coeffs(ctx, rng)
            a_hi, b_hi = (embed(p, hi) for p in (a, b))
            full = a_hi * b_hi
            trunc_hi = embed(a * b, hi)
            diff = full.coeffs - trunc_hi.coeffs
            assert np.abs(diff[hi.degrees <= k]).max() < 1e-13
            assert np.abs(diff[hi.degrees > k]).max() > 0.0

    def test_mul_truncation_decay_median(self):
        rng = np.random.default_rng(14)
        k = 3
        ctx = da.AlgebraContext(2, k)
        ratios = []
        for _ in range(20):
            a = poly_from_coeffs(ctx, rng)
            b = poly_from_coeffs(ctx, rng)
            d = rng.normal(size=2)
            d *= 0.05 / np.linalg.norm(d)
            e1 = abs(da.evaluate(a * b, d) - da.evaluate(a, d) * da.evaluate(b, d))
            e2 = abs(da.evaluate(a * b, d / 2) - da.evaluate(a, d / 2) * da.evaluate(b, d / 2))
            if e2 > 1e-14:
                ratios.append(e1 / e2)
        assert np.median(ratios) > 2 ** (k + 1) / 2


class TestPolynomialArrays:
    """Array-shaped DAScalar: each operation against the same operation on
    its single-polynomial entries."""

    def rand_array(self, ctx, rng, shape, const=0.0):
        coeffs = rng.normal(size=shape + (ctx.size,))
        coeffs[..., 0] += const
        return da.DAScalar(ctx, coeffs)

    def test_broadcast_product_matches_single_products(self):
        rng = np.random.default_rng(20)
        for n, k in ((10, 2), (2, 8)):
            ctx = da.AlgebraContext(n, k)
            a = self.rand_array(ctx, rng, (3, 1))
            b = self.rand_array(ctx, rng, (4,))
            ab = a * b
            assert ab.shape == (3, 4)
            # one kernel for every shape, so bit for bit
            for i in range(3):
                for j in range(4):
                    np.testing.assert_array_equal(ab[i, j].coeffs, (a[i, 0] * b[j]).coeffs)

    def test_constants_and_float_arrays(self):
        rng = np.random.default_rng(21)
        ctx = da.AlgebraContext(2, 3)
        x = self.rand_array(ctx, rng, (3,))
        v = np.array([1.0, -2.0, 0.5])
        for got, want in (((v - x)[1], v[1] - x[1]), ((x * v)[2], x[2] * v[2]),
                          ((x / v)[0], x[0] / v[0]), ((x + 2.0)[1], x[1] + 2.0)):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)
        # a float array broadcasts against the trailing leading axes
        X = self.rand_array(ctx, rng, (2, 3))
        np.testing.assert_array_equal((X - v)[1, 2].coeffs, (X[1, 2] - v[2]).coeffs)
        np.testing.assert_array_equal((v[:, None] + x).coeffs[2, 1], (v[2] + x[1]).coeffs)

    def test_matmul_matches_explicit_sums(self):
        rng = np.random.default_rng(22)
        ctx = da.AlgebraContext(3, 2)
        x = self.rand_array(ctx, rng, (3,))
        P = self.rand_array(ctx, rng, (2, 3))
        A = rng.normal(size=(3, 2))
        xa = x @ A
        pa = P @ A
        for j in range(2):
            want = x[0] * A[0, j] + x[1] * A[1, j] + x[2] * A[2, j]
            np.testing.assert_allclose(xa[j].coeffs, want.coeffs, atol=1e-13)
            for i in range(2):
                want = P[i, 0] * A[0, j] + P[i, 1] * A[1, j] + P[i, 2] * A[2, j]
                np.testing.assert_allclose(pa[i, j].coeffs, want.coeffs, atol=1e-13)
        assert (P @ P.T).shape == (2, 2)

    @staticmethod
    def reference_matmul(a, b):
        """Elementwise polynomial products, then a sum over the shared axis."""
        return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)

    @pytest.mark.parametrize("n,k", [(10, 2), (2, 8)])
    @pytest.mark.parametrize("a_shape,b_shape,out_shape", [
        ((1, 3), (3, 4), (1, 4)),
        ((2, 3), (3, 1), (2, 1)),
        ((6, 1, 3), (6, 3, 2), (6, 1, 2)),
        ((5, 1, 2, 3), (4, 3, 2), (5, 4, 2, 2)),
    ])
    def test_poly_matmul_matches_reference(self, n, k, a_shape, b_shape, out_shape):
        rng = np.random.default_rng(25)
        ctx = da.AlgebraContext(n, k)
        a = self.rand_array(ctx, rng, a_shape)
        b = self.rand_array(ctx, rng, b_shape)
        got = a @ b
        want = self.reference_matmul(a, b)
        assert got.shape == want.shape == out_shape
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-14,
                                   atol=1e-14 * np.abs(want.coeffs).max())

    def test_poly_matmul_context_mismatch(self):
        rng = np.random.default_rng(26)
        a = self.rand_array(da.AlgebraContext(2, 3), rng, (2,))
        b = self.rand_array(da.AlgebraContext(2, 4), rng, (2, 2))
        with pytest.raises(ValueError, match="context mismatch"):
            a @ b
        # a 1-d operand is refused, not promoted: matmul of polynomial
        # arrays contracts matrices
        m = self.rand_array(a.ctx, rng, (2, 2))
        for x, y in ((a, m), (m, a), (a, a), (a[0], m)):
            with pytest.raises(ValueError, match="at least two axes"):
                x @ y

    def test_float_matmul_broadcasts_leading_axes(self):
        rng = np.random.default_rng(27)
        ctx = da.AlgebraContext(2, 3)
        P = self.rand_array(ctx, rng, (4, 2, 3))
        A = rng.normal(size=(3, 2))
        PA = P @ A
        assert PA.shape == (4, 2, 2)
        for b in range(4):
            for i in range(2):
                for j in range(2):
                    want = P[b, i, 0] * A[0, j] + P[b, i, 1] * A[1, j] + P[b, i, 2] * A[2, j]
                    np.testing.assert_allclose(PA[b, i, j].coeffs, want.coeffs, atol=1e-13)
        with pytest.raises(ValueError, match="single polynomial"):
            P[0, 0, 0] @ A

    def test_float_matmul_needs_a_matrix(self):
        # a float vector or a stack of matrices is refused, not broadcast
        rng = np.random.default_rng(28)
        ctx = da.AlgebraContext(2, 3)
        x = self.rand_array(ctx, rng, (3,))
        for operand in (np.ones(3), np.ones((2, 3, 2)), 2.0):
            with pytest.raises(ValueError, match="must be a matrix"):
                x @ operand

    def test_intrinsic_per_entry(self):
        rng = np.random.default_rng(23)
        ctx = da.AlgebraContext(2, 5)
        x = self.rand_array(ctx, rng, (2, 2), const=3.0)
        s = da.sqrt(x)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(s[i, j].coeffs, da.sqrt(x[i, j]).coeffs,
                                           rtol=1e-12, atol=1e-12)

    def test_stack_and_evaluate(self):
        rng = np.random.default_rng(24)
        ctx = da.AlgebraContext(2, 3)
        x = self.rand_array(ctx, rng, (2,))
        four = da.constant(ctx, 4.0)
        s = da.stack([x[1], four, x[0]], axis=-1)
        assert s.shape == (3,)
        np.testing.assert_array_equal(s[1].coeffs, four.coeffs)
        devs = rng.normal(size=(5, 2))
        vals = da.evaluate_many(s, devs)
        assert vals.shape == (5, 3)
        np.testing.assert_allclose(vals[:, 2], da.evaluate_many(x[0], devs), rtol=1e-14)
        np.testing.assert_array_equal(da.stack([1.0, 2.0], axis=0), [1.0, 2.0])
        with pytest.raises(TypeError, match="all floats or all polynomials"):
            da.stack([x[0], 4.0], axis=0)

    def test_numpy_sees_one_object(self):
        # numpy must not iterate a polynomial array: np.asarray gives a 0-d
        # object array, which is how float and polynomial inputs are told apart
        x = da.identity_map(da.AlgebraContext(3, 2), [1.0, 2.0, 3.0])
        arr = np.asarray(x)
        assert arr.dtype == object and arr.shape == ()
