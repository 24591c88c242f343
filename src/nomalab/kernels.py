"""Kernels for fading-averaged error probabilities.

Everything here reduces to averages of Gaussian tail probabilities over
the Erlang-distributed combining gain Z = ||g||^2 (shape n).
erlang_fade_average, qpsk_sep_triplet and sep_probabilities take an
array of gains as well as one gain, and compute each entry the same way
whatever array it sits in:

* erlang_fade_average(a, n) is the exact average of Q(sqrt(a Z)).
* The two-term exponential approximation q_approx(x) (Chiani, Dardari,
  Simon) makes each decision axis contribute a bracket that is an
  exponential mixture in Z. _axis_brackets returns one axis's brackets
  as a coefficient matrix over that axis's unit-gain rates, and
  _cell_tables averages every bracket product at once as a matrix
  product, since e^(-r Z) averages to (1 + r)^(-n); it is the one
  evaluation behind cell_probability_table and sep_probabilities.
  sep_program compiles those tables, merged by error distance, into a
  SEP table for every gain; qpsk_sep_triplet is its QPSK closed form.
* cell_probability_quadrature integrates the same cell integrand with
  the exact Q and serves as the validation oracle for the closed route.

Decision-cell integrands use SIGNED boundary offsets relative to the
transmitted point; for negative arguments the approximation is evaluated
as 1 - q_approx(|x|), mirroring Q(-x) = 1 - Q(x).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .channel import erlang_pdf
from .constellation import Constellation

BRACKET_FLOATS = 1 << 20  # bracket tensor size per sep_probabilities chunk
_TINY = np.finfo(float).tiny  # the smallest normal float
_TRIPLET_NUM = np.array([[1.0], [2.0], [3.0], [6.0], [3.0]])
_TRIPLET_SLOPE = np.array([[1.0], [1.0], [2.0], [7.0], [4.0]])
# divisor of base j in (p_same, p_adj, p_diag); inf leaves the base out
_TRIPLET_DIV = np.array([[144.0, -72.0, 144.0], [-6.0, 6.0, math.inf],
                         [-2.0, 2.0, math.inf], [24.0, -12.0, 24.0],
                         [16.0, -8.0, 16.0]])
_TRIPLET_START = np.array([[1.0], [0.0], [0.0]])


def q_exact(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    from scipy.special import erfc  # only the oracles pay scipy's import

    out = 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))
    return out if out.ndim else float(out)


def q_approx(x):
    """Two-term exponential approximation of Q(x).

    exp(-x^2/2)/12 + exp(-2 x^2/3)/4 for x >= 0, and 1 minus that value
    at |x| for x < 0. Gives 1/3 at x = 0 (the approximation is not exact
    there) and inherits the approximation's 10-30% relative error on
    small probabilities; it exists to make products of Q terms average
    in closed form.
    """
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        base = np.exp(-0.5 * x_arr * x_arr) / 12.0 + np.exp(-(2.0 / 3.0) * x_arr * x_arr) / 4.0
    out = np.where(x_arr >= 0, base, 1.0 - base)
    return out if out.ndim else float(out)


def erlang_fade_average(a, n: int):
    """Exact average of Q(sqrt(a Z)) over Erlang-n fading, elementwise
    over an array a (a float for a scalar).

    Evaluated through the all-positive form
        f = p^n * sum_{k<n} C(n-1+k, k) q^k,
        p = 1 / ((a+2)(1+mu)),  q = (1+mu)/2,  mu = sqrt(a/(a+2)),
    which is algebraically identical to the alternating binomial form
    but free of the catastrophic cancellation that form suffers for
    large n (the alternating form underflows to 0 where the true value
    is ~1e-36).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape(-1)  # never 0-d, so ** is numpy's, for scalars too
    if not a.min(initial=0.0) >= 0:
        raise ValueError("a must be nonnegative")
    at_inf = None
    if a.max(initial=0.0) == math.inf:
        at_inf = a == math.inf
        a = np.where(at_inf, 0.0, a)
    t = a + 2.0
    u = 1.0 + np.sqrt(a / t)  # 1 + mu
    p = 1.0 / (t * u)
    q = 0.5 * u
    acc = 1.0
    qk = q
    for k in range(1, n):
        acc = acc + float(math.comb(n - 1 + k, k)) * qk
        qk = qk * q
    pn = p**n
    out = pn * acc
    low = pn < _TINY
    if low.any():
        # p**n has left the normal range, losing digits or all of them
        # before acc multiplies it back: take that product in logs
        acc = np.broadcast_to(acc, p.shape)[low]
        with np.errstate(divide="ignore"):  # p == 0 past a ~ 1e308
            out[low] = np.exp(n * np.log(p[low]) + np.log(acc))
    if at_inf is not None:
        out[at_inf] = 0.0
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def erlang_fade_quadrature(a: float, n: int) -> float:
    """Adaptive-quadrature oracle for erlang_fade_average."""
    from scipy.integrate import quad

    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    if not a >= 0:
        raise ValueError("a must be nonnegative")
    lam = 1.0 + a / 2.0
    peak = max((n - 1) / lam, 1e-12)
    zmax = (n + 800.0) / lam

    def integrand(z):
        return q_exact(math.sqrt(a * z)) * erlang_pdf(z, n)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = quad(integrand, 0.0, zmax, points=[peak], limit=500,
                   epsabs=1e-300, epsrel=1e-12)[0]
    return val


def qpsk_sep_triplet(a, n: int):
    """Closed-form distribution of the QPSK error distance under fading.

    Returns (P[d=0], P[d=2], P[d=2 sqrt(2)]) for a QPSK decision at
    fading-averaged SINR parameter a with n-fold combining, built on the
    two-term exponential approximation: three floats for a scalar a,
    three arrays of a's shape for an array. Each base is kept as a ratio
    so no intermediate overflows for large a or n; the three
    probabilities sum to 1 by construction.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape(-1)  # never 0-d, so ** is numpy's, for scalars too
    if not a.min(initial=0.0) >= 0:
        raise ValueError("a must be nonnegative")
    # the five bases 1/(1+a), 2/(2+a), 3/(3+2a), 6/(6+7a), 3/(3+4a), each
    # to the n; then each probability adds its terms base by base:
    #   p_same = 1 + e1/144 - e2/6 - e3/2 + e4/24 + e5/16
    #   p_adj  =    -e1/72  + e2/6 + e3/2 - e4/12 - e5/8
    #   p_diag =     e1/144               + e4/24 + e5/16
    e = (_TRIPLET_NUM / (_TRIPLET_NUM + _TRIPLET_SLOPE * a)) ** n
    terms = e[:, None, :] / _TRIPLET_DIV[:, :, None]
    out = _TRIPLET_START + terms[0]
    for term in terms[1:]:
        out += term
    out = out.reshape((3,) + shape)
    return tuple(out) if shape else tuple(out.tolist())


def _axis_brackets(bounds, level: float):
    """Decision brackets of one axis as exponential mixtures in g z.

    Returns (C, r): bracket j, the two-term model of the probability that
    the axis statistic lands in cell j given gain g and Z = z, is
    sum_a C[j, a] e^(-g r[a] z). Rate 0 comes first, then u^2/2 and
    2 u^2/3 for each finite boundary at signed offset u from level.
    That boundary's tail q_approx(u sqrt(g z)) is [u < 0] at rate 0
    and +-(1/12, 1/4) at its two rates; the +-inf sentinels contribute
    only the constant. Bracket j is tail(lower) - tail(upper).
    """
    u = np.asarray(bounds[1:-1], dtype=float) - level
    b = np.arange(1, len(u) + 1)  # row of each finite boundary
    sign = np.where(u < 0, -1.0, 1.0)
    tails = np.zeros((len(u) + 2, 2 * len(u) + 1))
    tails[0, 0] = 1.0
    tails[b, 0] = u < 0
    tails[b, 2 * b - 1] = sign / 12.0
    tails[b, 2 * b] = sign / 4.0
    rates = np.zeros(2 * len(u) + 1)
    rates[1::2] = 0.5 * u * u
    rates[2::2] = (2.0 / 3.0) * u * u
    return tails[:-1] - tails[1:], rates


def _stack_brackets(c: Constellation, tx: np.ndarray):
    """_axis_brackets of each symbol in tx, stacked along a leading axis:
    (C_i, r_i, C_q^T, r_q)."""
    c_i, r_i = map(np.array, zip(*(_axis_brackets(c.boundaries_i, x)
                                   for x in tx.real)))
    c_q, r_q = map(np.array, zip(*(_axis_brackets(c.boundaries_q, y)
                                   for y in tx.imag)))
    return c_i, r_i, c_q.transpose(0, 2, 1), r_q


def _cell_tables(brackets, gains: np.ndarray, n: int) -> np.ndarray:
    """Cell tables C_i E C_q^T of stacked brackets at each gain g, in
    (G, T, m_i, m_q): E[a, b] = (1 + g (r_i[a] + r_q[b]))^(-n) is the
    Erlang-n average of e^(-g (r_i[a] + r_q[b]) z)."""
    c_i, r_i, c_qt, r_q = brackets
    g = gains[:, None, None, None]
    e = (1.0 + (g * r_i[:, :, None] + g * r_q[:, None, :])) ** (-n)
    return c_i @ e @ c_qt


def _cell_offsets(c: Constellation, tx: complex, cell_i: int, cell_q: int):
    if not 0 <= cell_i < c.m_i:
        raise ValueError(f"cell_i {cell_i} out of range for {c!r}")
    if not 0 <= cell_q < c.m_q:
        raise ValueError(f"cell_q {cell_q} out of range for {c!r}")
    u = (c.boundaries_i[cell_i] - tx.real, c.boundaries_i[cell_i + 1] - tx.real)
    v = (c.boundaries_q[cell_q] - tx.imag, c.boundaries_q[cell_q + 1] - tx.imag)
    return u, v


def _check_gain_n(gain, n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("shape n must be a positive integer")
    if not np.all(np.asarray(gain) >= 0):
        raise ValueError("gain must be nonnegative")


def _clamp_probability(values, context: str) -> np.ndarray:
    """values with each negative entry set to 0: rounding noise below
    -1e-12 warns, anything below -1e-6 raises."""
    values = np.asarray(values, dtype=float)
    low = values.min(initial=0.0)
    if low < -1e-6:
        raise RuntimeError(f"{context}: probability {low} is far below zero")
    if low < -1e-12:
        warnings.warn(f"{context}: clamping {low} to 0", RuntimeWarning)
    return np.where(values < 0.0, 0.0, values)


def cell_probability_table(c: Constellation, tx: complex, gain: float,
                           n: int) -> np.ndarray:
    """Closed-form probabilities that tx is detected in each decision
    cell, as an (m_i, m_q) array: the Erlang-n average of each product
    of two axis brackets, from _cell_tables. Each tx's table sums to 1
    by telescoping."""
    _check_gain_n(gain, n)
    brackets = _stack_brackets(c, np.array([complex(tx)]))
    cells = _cell_tables(brackets, np.array([float(gain)]), n)
    return _clamp_probability(cells[0, 0], "cell_probability_table")


@lru_cache(maxsize=None)
def sep_program(c: Constellation, tx_set: tuple[int, ...]):
    """Compiled SEP table of a uniform choice among the symbols tx_set:
    (dists, brackets, merge). dists are the error distances, ascending.
    brackets stacks each tx's C_i, r_i, C_q^T and r_q from _axis_brackets.
    merge adds, with prior 1/len(tx_set), the cells at each squared
    distance, an exact integer on the odd grid."""
    tx = c.points[list(tx_set)]
    d2 = ((np.subtract.outer(tx.real, c.levels_i) ** 2)[:, :, None]
          + (np.subtract.outer(tx.imag, c.levels_q) ** 2)[:, None, :])
    d2, rows = np.unique(d2.ravel(), return_inverse=True)
    merge = np.zeros((len(d2), len(rows)))
    merge[rows, np.arange(len(rows))] = 1.0 / len(tx_set)
    brackets = _stack_brackets(c, tx)
    for arr in brackets + (merge,):  # shared by every caller of the cache
        arr.setflags(write=False)
    return tuple(np.sqrt(d2).tolist()), brackets, merge


def sep_probabilities(program, gain, n: int) -> np.ndarray:
    """A compiled SEP table's probabilities: each tx's cell table as in
    cell_probability_table, merged by distance. A scalar gain gives one
    row, an array of gains one row per gain, in gain.shape + (D,).
    (One flat sum over all bracket products loses 2e-12 relative at
    small gains.) Gains go through in chunks that keep the bracket
    tensor at about 2^20 floats; each row comes out the same whatever
    shares its chunk."""
    _check_gain_n(gain, n)
    _, brackets, merge = program
    gains = np.asarray(gain, dtype=float)
    flat = gains.reshape(-1)
    out = np.empty((flat.size, merge.shape[0]))
    chunk = max(1, BRACKET_FLOATS // (brackets[1].size * brackets[3].shape[1]))
    for lo in range(0, flat.size, chunk):
        cells = _cell_tables(brackets, flat[lo:lo + chunk], n)
        out[lo:lo + chunk] = (merge @ cells.reshape(len(cells), -1, 1))[..., 0]
    out = _clamp_probability(out, "sep_probabilities")
    return out.reshape(gains.shape + (merge.shape[0],))


def cell_probability_closed(tx: complex, cell_i: int, cell_q: int,
                            c: Constellation, gain: float, n: int) -> float:
    """Closed-form probability that tx is detected in cell (cell_i, cell_q):
    one entry of cell_probability_table."""
    _cell_offsets(c, complex(tx), cell_i, cell_q)  # range checks
    return float(cell_probability_table(c, tx, gain, n)[cell_i, cell_q])


def cell_probability_quadrature(tx: complex, cell_i: int, cell_q: int,
                                c: Constellation, gain: float, n: int) -> float:
    """Oracle for cell_probability_closed using the exact Q function."""
    from scipy.integrate import quad

    _check_gain_n(gain, n)
    (u_lo, u_hi), (v_lo, v_hi) = _cell_offsets(c, complex(tx), cell_i, cell_q)

    def q_signed(offset, z):
        if offset == np.inf:
            return 0.0
        if offset == -np.inf:
            return 1.0
        return q_exact(offset * math.sqrt(gain * z))

    def integrand(z):
        bi = q_signed(u_lo, z) - q_signed(u_hi, z)
        bq = q_signed(v_lo, z) - q_signed(v_hi, z)
        return bi * bq * erlang_pdf(z, n)

    zmax = n + 50.0 * math.sqrt(n) + 50.0
    hints = sorted({min(max(n - 1.0, 1e-6), 0.9 * zmax),
                    min(1.0 / (1.0 + gain), 0.9 * zmax)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = quad(integrand, 0.0, zmax, points=hints, limit=300,
                   epsabs=1e-12, epsrel=1e-10)[0]
    return val
