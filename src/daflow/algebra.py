"""Truncated multivariate Taylor-polynomial algebra.

States, flow maps, and measurement functions are all carried as polynomials
in a set of deviation variables ``d0 .. d{n-1}`` around a numeric expansion
center, truncated at a fixed total degree.  Arithmetic, the square root
and inverse square root, evaluation and map composition act directly on
coefficient tables, so pushing a polynomial state through ordinary
numerical code yields the Taylor expansion of that code's output around
the center.  Evaluation and composition substitute into the same monomial
ladder (:meth:`AlgebraContext.monomial_values`), floats for one and
polynomials for the other.

    ctx = AlgebraContext(n_vars=2, max_order=3)
    x = make_variable(ctx, -3.5, 0)          # -3.5 + d0
    y = make_variable(ctx, 0.0, 1)           #  d1
    r = sqrt(x * x + y * y)                  # range expanded around (-3.5, 0)
    evaluate(r, [0.1, -0.2])                 # polynomial evaluation

A :class:`DAScalar` is an array of polynomials: one dense coefficient block
of shape ``(*shape, basis size)``.  It indexes, broadcasts and multiplies
like a numpy array over its leading axes, so one piece of model code serves
float vectors, particle batches and polynomial states alike.  A polynomial
map, such as a state-transition or flow map, is a 1-d one: one polynomial
per component, in the deviations of the point it was expanded around.

Monomials are ordered graded-lexicographically (total degree first, then
the variable multiset), which fixes iteration order, printing, and the
textual dump format.  Coefficients are plain float64; every operation
returns a new value and never mutates its inputs.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

__all__ = [
    "AlgebraContext",
    "DAScalar",
    "DomainError",
    "constant",
    "make_variable",
    "identity_map",
    "asarray",
    "stack",
    "sqrt",
    "rsqrt",
    "evaluate",
    "evaluate_many",
    "truncation_indicator",
    "compose",
    "dump",
]

# dump/pruning threshold, relative to the largest coefficient in a polynomial
PRUNE_REL = 1e-14


class DomainError(ValueError):
    """The expansion point sits outside an intrinsic function's domain."""


class AlgebraContext:
    """Algebra of polynomials in ``n_vars`` variables truncated at total
    degree ``max_order``.

    Holds the monomial basis, its degree ladder and the multiplication
    table shared by every polynomial in the context.  The basis and ladder
    are built by the first context of each ``(n_vars, max_order)`` shape in
    a process, the table and its slot index on the shape's first product,
    and all are kept, so a fresh context of a shape already used builds
    none.
    """

    def __init__(self, n_vars: int, max_order: int):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        self.n_vars = int(n_vars)
        self.max_order = int(max_order)
        key = (self.n_vars, self.max_order)
        if key not in _BASES:
            _BASES[key] = _build_basis(*key)
        (self.exponents, self.degrees, self._index, self._degree_starts,
         self._ladder) = _BASES[key]
        self.size = len(self.exponents)
        self._products = None

    def __repr__(self):
        return f"AlgebraContext(n_vars={self.n_vars}, max_order={self.max_order})"

    def compatible(self, other: "AlgebraContext") -> bool:
        return self.n_vars == other.n_vars and self.max_order == other.max_order

    def index_of(self, exponents) -> int:
        return self._index[tuple(int(e) for e in exponents)]

    def multiplication_table(self):
        """(i, j, k) index triples with ``basis[i] * basis[j] = basis[k]``,
        restricted to products that survive truncation.  Each k's terms
        keep (i, j) order; across k the table takes every k's first term,
        then every k's second, and so on, so that consecutive terms add
        into different coefficients."""
        if self._products is None:
            key = (self.n_vars, self.max_order)
            if key not in _MUL_TABLES:
                _MUL_TABLES[key] = _Products(_build_multiplication_table(self), self.size)
            self._products = _MUL_TABLES[key]
        return self._products.table

    def monomial_values(self, x):
        """Values of every basis monomial at ``x``: an (N, n_vars) float
        block of deviation rows gives (N, size), an (n_vars,) polynomial array
        of another algebra a (size,) polynomial array.  The values fill one
        row per monomial, so each run of the ladder reads and writes
        contiguous rows; for floats the result is that block transposed."""
        poly = isinstance(x, DAScalar)
        if not poly:
            x = np.asarray(x, dtype=float)
        if x.ndim != (1 if poly else 2) or x.shape[-1] != self.n_vars:
            raise ValueError(
                f"deviation block must be (N, {self.n_vars}) floats or "
                f"({self.n_vars},) polynomials, got {x.shape}"
            )
        if poly:
            rows = np.zeros((self.size, x.ctx.size))
            rows[0, 0] = 1.0
            rows[1:self.n_vars + 1] = x.coeffs
        else:
            rows = np.empty((self.size, len(x)))
            rows[0] = 1.0
            rows[1:self.n_vars + 1] = x.T
        for dst, lo, hi, v in self._ladder:
            if poly:
                rows[dst:dst + hi - lo] = (DAScalar(x.ctx, rows[lo:hi]) * x[v]).coeffs
            else:
                np.multiply(rows[lo:hi], rows[1 + v], out=rows[dst:dst + hi - lo])
        return DAScalar(x.ctx, rows) if poly else rows.T


def _build_basis(n_vars: int, max_order: int) -> tuple:
    """The basis of one ``(n_vars, max_order)`` shape, as
    :class:`AlgebraContext` holds it: exponents, degrees, the index of each
    exponent tuple, the start of each degree's block and the monomial
    ladder.  The arrays are read-only, since every context of the shape
    shares them."""
    exps = []
    index = {}
    for degree in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), degree):
            e = [0] * n_vars
            for v in combo:
                e[v] += 1
            index[tuple(e)] = len(exps)
            exps.append(e)
    exponents = np.array(exps, dtype=np.int64)
    degrees = exponents.sum(axis=1)
    # monomials are degree-sorted: degree d occupies [starts[d], starts[d + 1])
    starts = np.searchsorted(degrees, np.arange(max_order + 2))
    # the monomial ladder: in graded-lex order the degree-d monomials
    # (d >= 2) with lowest variable v form a run, which is the tail of the
    # degree-(d - 1) block with lowest variable >= v times x_v, in order;
    # (dst, lo, hi, v) writes rows[lo:hi] * x_v at dst
    lowest = np.argmax(exponents > 0, axis=1)
    ladder = []
    for d in range(2, max_order + 1):
        dst = int(starts[d])
        for v in range(n_vars):
            lo = int(starts[d - 1] + np.searchsorted(lowest[starts[d - 1]:starts[d]], v))
            ladder.append((dst, lo, int(starts[d]), v))
            dst += int(starts[d]) - lo
    for a in (exponents, degrees, starts):
        a.setflags(write=False)
    return exponents, degrees, index, starts, tuple(ladder)


# (n_vars, max_order) -> the tuple of _build_basis
_BASES = {}


class _Products:
    """The multiplication table of one ``(n_vars, max_order)`` shape and the
    slot index its products sum with, shared by every context of the shape.

    Entry ``p * len(kk) + t`` of ``slots`` is ``p * size + kk[t]``, the
    coefficient that term t of polynomial p of a flattened stack adds into,
    so one ``np.bincount`` over ``slots[:terms.size]`` sums a whole stack.
    The index grows to the largest stack multiplied so far and only ever
    grows, so a product reads a view of it and builds nothing."""

    __slots__ = ("table", "size", "slots")

    def __init__(self, table, size: int):
        self.table = table
        self.size = size
        self.slots = table[2]  # one polynomial's slots are kk itself

    def grow(self, n: int) -> np.ndarray:
        """A slot index of at least ``n`` entries, whose prefix is the one
        before; the stack it covers at least doubles, so growing is rare."""
        kk = self.table[2]
        count = max(-(-n // len(kk)), 2 * (len(self.slots) // len(kk)))
        slots = (np.arange(count)[:, None] * self.size + kk).ravel()
        if len(slots) > len(self.slots):
            self.slots = slots
        return slots


# (n_vars, max_order) -> _Products
_MUL_TABLES = {}


def _build_multiplication_table(ctx: AlgebraContext):
    """The table of :meth:`AlgebraContext.multiplication_table`."""
    deg = ctx.degrees
    k = ctx.max_order
    ii, jj, kk = [], [], []
    for i in range(ctx.size):
        # monomials are degree-sorted, so each degree bound is a prefix
        jend = int(ctx._degree_starts[k - deg[i] + 1])
        ei = ctx.exponents[i]
        for j in range(jend):
            kk.append(ctx._index[tuple(ei + ctx.exponents[j])])
        ii.extend([i] * jend)
        jj.extend(range(jend))
    # a stable sort keeps each k's terms in (i, j) order; interleaving the
    # runs by rank lets consecutive adds of the sum go to different
    # coefficients, so none waits on the one before, and changes no sum
    by_k = np.argsort(kk, kind="stable")
    sorted_k = np.array(kk)[by_k]
    rank = np.arange(len(sorted_k)) - np.searchsorted(sorted_k, sorted_k)
    order = by_k[np.lexsort((sorted_k, rank))]
    # every context of the shape reads these arrays and the slot index, so
    # none may write them; they stay writeable all the same, since take and
    # bincount copy a read-only index array on every call
    return tuple(np.array(t, dtype=np.intp)[order] for t in (ii, jj, kk))


def _check_context(a: "DAScalar", b: "DAScalar") -> None:
    if a.ctx is not b.ctx and not a.ctx.compatible(b.ctx):
        raise ValueError(f"context mismatch: {a.ctx!r} vs {b.ctx!r}")


def _is_constant(value) -> bool:
    """A real number or a float array, taken as constant polynomials."""
    # float, int and arrays first: the numbers.Real check alone is ~20x slower
    if isinstance(value, (float, int)):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biuf"
    return isinstance(value, numbers.Real)


def _coeff_axis(axis: int) -> int:
    """Coefficient-block axis of a leading axis (the basis axis is last)."""
    return axis - 1 if axis < 0 else axis


class DAScalar:
    """An array of truncated Taylor polynomials; ``shape == ()`` is a single
    polynomial.

    ``coeffs`` is a dense float block of shape ``(*shape, basis size)`` over
    the context's graded-lex monomial basis.  Indexing, ``+``, ``-`` and
    ``*`` (the truncated polynomial product, elementwise) act on the leading
    axes with numpy broadcasting; real numbers and float arrays enter as
    constant polynomials, and ``/`` takes only those.  ``@`` takes a float
    matrix only and contracts the last leading axis with it, one matmul on
    the coefficient block; every polynomial product is ``*``.  Instances are
    immutable by convention: all arithmetic returns new values.
    """

    __slots__ = ("ctx", "coeffs")
    # keep numpy from broadcasting over us so mixed expressions defer to our dunders
    __array_ufunc__ = None

    def __init__(self, ctx: AlgebraContext, coeffs: np.ndarray | None = None):
        self.ctx = ctx
        if coeffs is None:
            coeffs = np.zeros(ctx.size)
        self.coeffs = coeffs

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim - 1

    @property
    def constant(self):
        """Coefficients of the all-zeros multi-index: a float for a single
        polynomial, an array of the polynomial array's shape otherwise."""
        if self.coeffs.ndim == 1:
            return float(self.coeffs[0])
        return self.coeffs[..., 0].copy()

    @property
    def terms(self) -> dict:
        """Nonzero coefficients of a single polynomial keyed by exponent
        multi-index, graded-lex order."""
        return {
            tuple(int(e) for e in self.ctx.exponents[m]): float(c)
            for m, c in enumerate(self.coeffs)
            if c != 0.0
        }

    @property
    def T(self) -> "DAScalar":
        axes = tuple(reversed(range(self.ndim))) + (self.ndim,)
        return DAScalar(self.ctx, self.coeffs.transpose(axes))

    def __getitem__(self, key):
        # every model index starts with an Ellipsis: no scan for one needed
        if type(key) is tuple and key and key[0] is Ellipsis:
            return DAScalar(self.ctx, self.coeffs[key + (slice(None),)])
        if not isinstance(key, tuple):
            key = (key,)
        if not any(k is Ellipsis for k in key):
            key = key + (Ellipsis,)
        return DAScalar(self.ctx, self.coeffs[key + (slice(None),)])

    def __iter__(self):
        if self.ndim == 0:
            raise TypeError("iteration over a single polynomial")
        return (self[i] for i in range(self.shape[0]))

    def reshape(self, *shape) -> "DAScalar":
        return DAScalar(self.ctx, self.coeffs.reshape(shape + (self.ctx.size,)))

    def _plus_constant(self, coeffs: np.ndarray, value) -> "DAScalar":
        """``coeffs`` plus a number, or a float array that broadcasts against it."""
        if not isinstance(value, np.ndarray) or value.shape == coeffs.shape[:-1]:
            out = coeffs.copy()
            out[..., 0] += value
            return DAScalar(self.ctx, out)
        pad = np.zeros(value.shape + coeffs.shape[-1:])
        pad[..., 0] = value
        return DAScalar(self.ctx, coeffs + pad)

    def __add__(self, other):
        if isinstance(other, DAScalar):
            _check_context(self, other)
            return DAScalar(self.ctx, self.coeffs + other.coeffs)
        if not _is_constant(other):
            return NotImplemented
        return self._plus_constant(self.coeffs, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DAScalar):
            _check_context(self, other)
            return DAScalar(self.ctx, self.coeffs - other.coeffs)
        if not _is_constant(other):
            return NotImplemented
        return self._plus_constant(self.coeffs, -other)

    def __rsub__(self, other):
        if not _is_constant(other):
            return NotImplemented
        return self._plus_constant(-self.coeffs, other)

    def __neg__(self):
        return DAScalar(self.ctx, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, DAScalar):
            _check_context(self, other)
            ctx = self.ctx
            ii, jj, _ = ctx.multiplication_table()
            terms = self.coeffs.take(ii, axis=-1) * other.coeffs.take(jj, axis=-1)
            shape = terms.shape[:-1] + (ctx.size,)
            n = terms.size
            if not n:  # bincount returns ints for no input
                return DAScalar(ctx, np.zeros(shape))
            slots = ctx._products.slots
            if len(slots) < n:
                slots = ctx._products.grow(n)
            # each coefficient sums its terms in table order, one stack
            # entry as any other, so a stacked product is bit for bit the
            # product of each entry alone; every last coefficient has a term
            # (1 times it), so the counts end at the last slot
            return DAScalar(ctx, np.bincount(slots[:n], terms.ravel()).reshape(shape))
        return self.__rmul__(other)

    def __rmul__(self, other):
        if not _is_constant(other):
            return NotImplemented
        if isinstance(other, np.ndarray):
            other = other[..., None]
        return DAScalar(self.ctx, self.coeffs * other)

    def __truediv__(self, other):
        if not _is_constant(other):
            return NotImplemented
        if isinstance(other, np.ndarray):
            other = other[..., None]
        return DAScalar(self.ctx, self.coeffs / other)

    def __matmul__(self, other):
        if not _is_constant(other):
            return NotImplemented
        if self.coeffs.ndim == 1:
            raise ValueError("matmul: a single polynomial has no axis to contract")
        if not isinstance(other, np.ndarray) or other.ndim != 2:
            raise ValueError(f"matmul: the float operand must be a matrix, got shape "
                             f"{np.shape(other)}")
        # contract the last leading axis, the coefficient block's axis -2,
        # with the matrix's first: other.T @ coeffs, in which the other
        # leading axes of the polynomial array are matmul batch axes
        return DAScalar(self.ctx, other.T @ self.coeffs)

    def __repr__(self):
        if self.ndim:
            return f"<DAScalar shape={self.shape} ctx={self.ctx!r}>"
        parts = []
        for exps, c in self.terms.items():
            mono = "*".join(
                f"d{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e
            )
            parts.append(f"{c:g}" + (f"*{mono}" if mono else ""))
            if len(parts) == 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<DAScalar {body}>"


def constant(ctx: AlgebraContext, value) -> DAScalar:
    """Constant polynomials: one for a number, one per entry of an array."""
    value = np.asarray(value, dtype=float)
    out = np.zeros(value.shape + (ctx.size,))
    out.T[0] = value.T
    return DAScalar(ctx, out)


def make_variable(ctx: AlgebraContext, center: float, var_index: int) -> DAScalar:
    """The polynomial ``center + d_{var_index}``."""
    if not 0 <= var_index < ctx.n_vars:
        raise ValueError(f"var_index {var_index} out of range for {ctx!r}")
    out = DAScalar(ctx)
    out.coeffs[0] = float(center)
    # degree-1 monomials sit right after the constant, in variable order
    out.coeffs[1 + var_index] = 1.0
    return out


def asarray(x):
    """``x`` itself for a polynomial array, ``np.asarray(x)`` otherwise."""
    return x if isinstance(x, DAScalar) else np.asarray(x)


def stack(items, axis: int):
    """``np.stack`` over floats, or over polynomials of one algebra."""
    items = list(items)
    polys = [isinstance(x, DAScalar) for x in items]
    if not any(polys):
        return np.stack(items, axis=axis)
    if not all(polys):
        raise TypeError("stack takes all floats or all polynomials")
    for x in items[1:]:
        _check_context(items[0], x)
    return DAScalar(items[0].ctx, np.stack([x.coeffs for x in items], axis=_coeff_axis(axis)))


# ---------------------------------------------------------------------------
# intrinsic functions: f(const + p) = sum_j f^(j)(const)/j! * p^j, p nilpotent


def _binomial_series(name: str, alpha: float, leading):
    """Series of a0 ** alpha from its leading term ``leading(a0)`` by the
    binomial recurrence c_j = c_{j-1} (alpha - j + 1) / (j a0), run once
    over an array of centers ``a0``; returns (k + 1, *a0.shape)."""

    def series(a0: np.ndarray, k: int) -> np.ndarray:
        a0 = a0[()]  # a 0-d array as a numpy scalar, whose arithmetic is cheaper
        if np.count_nonzero(a0 <= 0.0):
            bad = np.ravel(a0)[np.ravel(a0) <= 0.0][0]
            raise DomainError(f"{name}: expansion center {bad} is not positive")
        out = [leading(a0)]
        for j in range(1, k + 1):
            out.append(out[-1] * (alpha - (j - 1)) / (j * a0))
        return np.array(out)

    return series


_series_sqrt = _binomial_series("sqrt", 0.5, np.sqrt)
_series_rsqrt = _binomial_series("rsqrt", -0.5, lambda a0: 1.0 / np.sqrt(a0))


def _apply_series(series_of, a: DAScalar) -> DAScalar:
    """Apply a univariate function, given as ``series_of(a0, k)``, the
    Taylor coefficients up to degree ``k`` about every center of the array
    ``a0``, to each polynomial as its series summed over the powers of the
    nilpotent part p.

    The powers p^1..p^k fill one block by doubling, p^{1..n} * p^n =
    p^{n+1..2n}, so the k powers take ceil(log2 k) products, where
    Horner's rule takes k sequential ones."""
    k = a.ctx.max_order
    series = series_of(a.coeffs[..., 0], k)  # (k + 1, *shape)
    powers = np.empty((k,) + a.coeffs.shape)
    powers[0] = a.coeffs
    powers[0, ..., 0] = 0.0
    n = 1
    while n < k:
        m = min(n, k - n)
        powers[n:n + m] = (DAScalar(a.ctx, powers[:m]) * DAScalar(a.ctx, powers[n - 1])).coeffs
        n += m
    # sum_j c_j p^j in one contraction, without a (k, *shape, size) temporary
    out = np.einsum("k...,k...c->...c", series[1:], powers)
    out[..., 0] += series[0]
    return DAScalar(a.ctx, out)


def sqrt(x):
    """sqrt on floats/arrays (numpy) or DAScalar (series recomposition)."""
    if isinstance(x, DAScalar):
        return _apply_series(_series_sqrt, x)
    return np.sqrt(x)


def rsqrt(x):
    """1 / sqrt(x) on floats/arrays (numpy) or DAScalar (one binomial
    series, not a division after :func:`sqrt`).  On floats
    ``rsqrt(0)`` is the pole, +inf, without numpy's divide-by-zero warning."""
    if isinstance(x, DAScalar):
        return _apply_series(_series_rsqrt, x)
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(x)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(obj, deviation):
    """Substitute numbers for the deviation variables.

    Single polynomial -> float; polynomial array -> array of its shape.
    """
    n_vars = obj.ctx.n_vars
    dev = np.asarray(deviation, dtype=float)
    if dev.shape != (n_vars,):
        raise ValueError(f"deviation must have length {n_vars}, got shape {dev.shape}")
    out = evaluate_many(obj, dev[None, :])[0]
    return float(out) if obj.ndim == 0 else out


def evaluate_many(obj: DAScalar, deviations: np.ndarray) -> np.ndarray:
    """Evaluate at a batch of deviation rows: (N, n_vars) -> (N, *shape)."""
    vals = obj.ctx.monomial_values(deviations)
    flat = obj.coeffs.reshape(-1, obj.ctx.size)
    return (vals @ flat.T).reshape(vals.shape[:1] + obj.shape)


def truncation_indicator(fmap: DAScalar, deviations: np.ndarray) -> np.ndarray:
    """Per-row estimate of a map's truncation error: the norm of its
    highest-degree terms at each deviation row, (N, n_vars) -> (N,).

    Inside the convergence region the Taylor terms shrink with degree, so
    the last kept degree bounds the size of the dropped ones; a row where it
    is large lies beyond the region.  An affine map has no nonlinear terms
    to estimate from and reads zero everywhere.
    """
    ctx = fmap.ctx
    vals = ctx.monomial_values(deviations)
    if ctx.max_order < 2:
        return np.zeros(len(vals))
    top = ctx.degrees == ctx.max_order
    flat = fmap.coeffs.reshape(-1, ctx.size)
    return np.linalg.norm(vals[:, top] @ flat[:, top].T, axis=1)


# ---------------------------------------------------------------------------
# polynomial maps: (n,) polynomial arrays


# a map is its (n,) polynomial array and carries no center; nothing here
# calls this, but perfbench/micro.py still builds its operands with it
def DAVector(components, center) -> DAScalar:
    """``stack(components, 0)``; ``center`` is not read."""
    return stack(components, 0)


def identity_map(ctx: AlgebraContext, center) -> DAScalar:
    """The map ``center_i + d_i``, one component per entry of ``center``."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = len(center)
    if center.ndim != 1 or n > ctx.n_vars:
        raise ValueError(f"center of shape {center.shape} has no variable per entry in {ctx!r}")
    coeffs = np.zeros((n, ctx.size))
    coeffs[:, 0] = center
    # degree-1 monomials sit right after the constant, in variable order
    coeffs[np.arange(n), 1 + np.arange(n)] = 1.0
    return DAScalar(ctx, coeffs)


def compose(outer: DAScalar, inner: DAScalar) -> DAScalar:
    """Truncated polynomial of the map ``outer`` applied after the map
    ``inner``, both (n,) polynomial arrays.

    The deviation variables of ``outer`` receive the components of
    ``inner`` about their constant parts, so ``inner`` has one component
    per variable of ``outer``, and the result lives in ``inner``'s algebra.
    Exact whenever the combined degree stays within the truncation order.
    """
    octx = outer.ctx
    ictx = inner.ctx
    n_inner = inner.shape[0]
    if n_inner != octx.n_vars:
        raise ValueError(
            f"outer map expands {octx.n_vars} variables but inner has "
            f"{n_inner} components"
        )

    devs = inner.coeffs.copy()
    devs[:, 0] = 0.0
    # outer's basis monomials as polynomials of the inner algebra
    vals = octx.monomial_values(DAScalar(ictx, devs)).coeffs
    if octx.max_order < ictx.max_order:
        vals[:, ictx.degrees > octx.max_order] = 0.0

    return DAScalar(ictx, outer.coeffs @ vals)


def dump(fmap: DAScalar) -> str:
    """Textual map dump: one line per monomial,
    ``component_index, coefficient, e0 e1 ... e{n-1}``.

    Coefficients below PRUNE_REL of the component's largest magnitude are
    dropped; line order is (component, graded-lex monomial).
    """
    ctx = fmap.ctx
    lines = []
    for ci, coeffs in enumerate(fmap.coeffs.reshape(-1, ctx.size)):
        cmax = np.abs(coeffs).max()
        if cmax == 0.0:
            continue
        keep = np.abs(coeffs) >= PRUNE_REL * cmax
        for m in np.nonzero(keep)[0]:
            es = " ".join(str(int(e)) for e in ctx.exponents[m])
            lines.append(f"{ci}, {coeffs[m]:.17g}, {es}")
    return "\n".join(lines) + "\n"
