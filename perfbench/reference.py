"""Reference kernels: fixed work that an untraced run times before every
operation, so that each operation's time can be given in units of the
kernel's time (the ``*_rel`` metrics).

The host's speed drifts by up to two times in phases of seconds to minutes,
and how much an operation slows depends on the kind of work it does.  Each
workload therefore names the kernel that slows as its operation does:

* :func:`dispatch`: interpreter dispatch over polynomial-sized arrays, as
  in the polynomial-map workloads, whose time is almost all in the
  polynomial algebra;
* :func:`mixed`: an interpreter loop, small-array numpy calls and numpy
  calls on a 2,500 x 10 particle batch, as in a per-particle ODE epoch.

Both are the benchmark's own code, so no change to the program can move
them.
"""

from __future__ import annotations

import numpy as np

POLY_SIZE = 45            # coefficients of an order-8 polynomial in 2 variables
_rng = np.random.default_rng(0)
# a fixed product table over POLY_SIZE coefficients, used the way the
# algebra uses its multiplication table: gather, multiply, bincount
_II, _JJ = _rng.integers(0, POLY_SIZE, (2, 500))
_KK = np.sort(_rng.integers(0, POLY_SIZE, 500))
_SMALL = np.linspace(0.0, 1.0, 66)
_BATCH = np.linspace(0.0, 1.0, 25_000).reshape(2_500, 10)


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        return _Poly(np.bincount(_KK, weights=self.c[_II] * other.c[_JJ], minlength=POLY_SIZE))

    def __add__(self, other):
        return _Poly(self.c + other.c)


def dispatch() -> None:
    small = _SMALL
    for _ in range(1_800):
        small = small * 0.999 + 0.001
    a = _Poly(np.linspace(0.0, 1.0, POLY_SIZE))
    b = _Poly(np.linspace(1.0, 0.0, POLY_SIZE))
    for _ in range(450):
        a = a * b + b
        a.c /= 1.0 + np.abs(a.c).max()


def mixed() -> None:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    small = _SMALL
    for _ in range(600):
        small = small * 0.999 + 0.001
    for _ in range(100):
        (_BATCH * _BATCH).sum(axis=0)
