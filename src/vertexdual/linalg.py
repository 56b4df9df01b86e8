"""Small dense-linear-algebra helpers used across the package.

Polynomial coefficient arrays follow the ``numpy.poly`` convention:
highest power first, leading coefficient 1 for monic polynomials.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import combinations
from operator import mul

import numpy as np

from .errors import GeneralPositionViolated

# General position: chains, Lax matrices and the flow keep |sinh(eta)| and
# the |sinh| of each gap (with its +-eta shifts) above GENERAL_POSITION_TOL.
# A sinh at or below SINGULAR_TOL counts as zero.
GENERAL_POSITION_TOL = 1e-9
SINGULAR_TOL = 1e-12


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise difference relative to the larger scale of the two
    matrices, equal-length coefficient arrays or scalars."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-300)
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def charpoly_minors(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda*I - a) summed from principal minors.

    Avoids the eigensolver entirely: the lambda^(n-k) coefficient is
    (-1)^k times the sum of all k x k diagonal minors, each evaluated by
    LU.  Exponential in n; intended for n <= ~8.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    for k in range(1, n + 1):
        s = 0.0 + 0.0j
        for sub in combinations(range(n), k):
            block = a[np.ix_(sub, sub)]
            s += block[0, 0] if k == 1 else np.linalg.det(block)
        coeffs[k] = (-1.0) ** k * s
    return coeffs


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Columns of an exact minimum-cost assignment: row i takes column
    cols[i] of the square, finite ``cost``, and the total is minimal.
    A stack of shape (..., n, n) gives columns of shape (..., n), one
    assignment per matrix.

    Where a matrix's row-wise argmin is already a permutation it is
    returned: the sum of row minima bounds every assignment from below.
    Only the other matrices go to the search (see _augmenting_paths).
    Ties go to the lowest column index, in the row minima and in the
    search.
    """
    n = cost.shape[-1]
    if cost.ndim < 2 or cost.shape[-2] != n:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    # The sum is finite only if every entry is.
    if not math.isfinite(np.add.reduce(cost, axis=None)):
        raise ValueError("cost matrix contains non-finite entries")
    if n == 0:
        return np.zeros(cost.shape[:-1], dtype=int)
    cols = cost.argmin(-1)
    # Views of the stack as a list of matrices; writes go through to cols.
    items, matrices = cols.reshape(-1, n), cost.reshape(-1, n, n)
    for i, row in enumerate(items.tolist()):
        if len(set(row)) < n:
            items[i] = _augmenting_paths(matrices[i].tolist())
    return cols


def _augmenting_paths(c: list[list[float]]) -> list[int]:
    """Columns of a minimum-cost assignment of the square cost rows ``c``
    by the shortest-augmenting-path Hungarian method with dual potentials
    (Kuhn 1955; Jonker & Volgenant 1987), adding the rows in order; ties
    go to the lowest column index in each path step.  Plain Python: the
    matrices here are at most 10 x 10, where numpy's per-call overhead
    would dominate."""
    n = len(c)
    inf = float("inf")
    # 1-based columns; column 0 is the virtual start of each augmenting
    # path.  row_of[j] is the row (1-based, 0 = free) holding column j.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    row_of = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        dist = [inf] * (n + 1)
        prev = [0] * (n + 1)
        done = [False] * (n + 1)
        while row_of[j0]:
            done[j0] = True
            i0 = row_of[j0]
            row, ui = c[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not done[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(n + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    cols = [0] * n
    for j in range(1, n + 1):
        cols[row_of[j] - 1] = j - 1
    return cols


def match_multisets(values: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum-cost assignment of ``values`` onto ``targets``.

    Cost is the distance relative to the target magnitude, and the
    assignment minimizes its sum exactly (see _assignment).  Ties: when
    each value's nearest target (the first, among equal ones) is a
    different target, that matching is kept; otherwise the Hungarian
    search takes the lowest target index at each tie.  Returns the
    permutation (values[i] is matched to targets[perm[i]]) and the
    per-pair relative errors.  Values of shape (..., n) are matched item
    by item onto the one ``targets``, giving both of shape (..., n).
    """
    values = np.asarray(values)
    targets = np.asarray(targets)
    cost = np.abs(values[..., :, None] - targets)
    cost /= np.maximum(np.abs(targets), 1e-12)
    perm = _assignment(cost)
    return perm, np.take_along_axis(cost, perm[..., None], axis=-1)[..., 0]


def reduce_mod_ipi(z):
    """Shift by multiples of i*pi so that Im(z) lands in (-pi/2, pi/2]."""
    z = np.asarray(z, dtype=complex)
    shift = np.ceil((z.imag - np.pi / 2) / np.pi)
    return z - 1j * np.pi * shift


def ipi_distance(u, v) -> float:
    """Max distance between root tuples up to i*pi shifts and permutation.

    Each difference u_i - v_j is reduced with reduce_mod_ipi.  The
    permutation is the exact minimum-sum assignment of the reduced
    distances (see _assignment; ties go to the lowest index of ``v``),
    and the value is the largest distance it pairs.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if u.size != v.size:
        return np.inf
    if u.size == 0:
        return 0.0
    dist = np.abs(reduce_mod_ipi(u[:, None] - v[None, :]))
    return float(np.max(dist[np.arange(u.size), _assignment(dist)]))


@lru_cache(maxsize=16)
def diagonal_mask(n: int) -> np.ndarray:
    """The read-only n x n boolean mask of the diagonal, built once per n."""
    diag = np.eye(n, dtype=bool)
    diag.flags.writeable = False
    return diag


def sinh_pairs(a, b, shift) -> np.ndarray:
    """The pair matrix sinh(a_i - b_j + shift).

    With ``b`` None, ``a`` is paired with itself and the diagonal i = j
    is set to 1, so row products run over j != i.  Coordinates of shape
    (..., n) give a stack of matrices of shape (..., n, m).
    """
    a = np.asarray(a, dtype=complex)
    other = a if b is None else np.asarray(b, dtype=complex)
    out = np.sinh(a[..., :, None] - other[..., None, :] + shift)
    if b is None:
        out[..., diagonal_mask(a.shape[-1])] = 1.0
    return out


# A pair is far apart where a shifted gap has |Re| > FAR_RE.  Its sinh
# overflows from |Re| ~ 710, and products and quotients of finite ones
# overflow (giving inf or 0, say) from about half that; far pairs are
# taken in a cancelled form, which is as accurate at any gap.
FAR_RE = 350.0


def _far_pair_quotient(d, tops, bottoms):
    """prod_t sinh(d + t)/prod_b sinh(d + b), at least as many shifts below
    as on top, from sinh(z) = -s e^{sz} expm1(-2sz)/2 with s = +-1 the
    sign of Re d: as e^{s(sum t - sum b)} prod_t expm1(-2s(d + t))/prod_b
    expm1(-2s(d + b)), the factors -s e^{sd}/2 of a top and a bottom
    cancelling, times -2s e^{-sd} for each bottom without a top.  No
    exponent grows with |d|, so it stays finite (or tends to 0) however
    far apart the pair is."""
    s = np.where(np.real(d) < 0, -1.0, 1.0)
    num = reduce(mul, (np.expm1(-2 * s * (d + t)) for t in tops)) if tops else 1.0
    den = reduce(mul, (np.expm1(-2 * s * (d + b)) for b in bottoms))
    out = np.exp(s * (sum(tops) - sum(bottoms))) * (num / den)
    for _ in range(len(bottoms) - len(tops)):
        out = out * (-2 * s * np.exp(-s * d))
    return out


def gap_quotient(d, tops: tuple, bottoms: tuple, den=None) -> np.ndarray:
    """prod_t sinh(d + t)/prod_b sinh(d + b) entrywise on the pair
    differences ``d`` (an array), at least as many shifts below as on top;
    ``den`` is the denominator where the caller has formed it.  The one
    evaluator of sinh pair quotients, balanced or not: near pairs take
    the plain sinh form (1/den with no top), and far pairs, where some
    |Re(d + shift)| > FAR_RE, the cancelled form of _far_pair_quotient.
    Where the denominator is 0 the entry is not finite, so a caller
    pairing a family with itself sets its diagonal.  Real d and shifts
    stay in real arithmetic."""
    shifts = tops + bottoms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if den is None:
            den = reduce(mul, (np.sinh(d + b) for b in bottoms))
        out = (reduce(mul, (np.sinh(d + t) for t in tops)) if tops else 1.0) / den
        if np.abs(d.real).max(initial=0.0) + max(abs(s.real) for s in shifts) > FAR_RE:
            far = np.max([np.abs(np.real(d + s)) for s in shifts], axis=0) > FAR_RE
            out = np.asarray(out)
            out[far] = _far_pair_quotient(d[far], tops, bottoms)
    return out


def sinh_pair_product(a, b, top, bottom) -> np.ndarray:
    """prod_j sinh(a_i - b_j + top)/sinh(a_i - b_j + bottom) for each i
    (j != i when ``b`` is None), far pairs as in gap_quotient; stacked
    like sinh_pairs."""
    a = np.asarray(a, dtype=complex)
    other = a if b is None else np.asarray(b, dtype=complex)
    quotient = gap_quotient(a[..., :, None] - other[..., None, :], (top,), (bottom,))
    if b is None:
        quotient[..., diagonal_mask(a.shape[-1])] = 1.0
    return np.prod(quotient, axis=-1)


# Shifts for the plain gaps sinh(a_i - b_j).
UNSHIFTED = {"": 0.0}


def eta_shifts(eta) -> dict[str, complex]:
    """The general-position shifts 0 and +-eta, keyed by their label."""
    return {"": 0.0, " + eta": eta, " - eta": -eta}


def smallest_sinh_gap(a, b, shifts: dict):
    """(gap, i, j, label): the smallest |sinh(a_i - b_j + s)| over the
    labelled shifts s and all pairs, i != j when ``b`` is None.  The gap
    is inf when there is no pair (then i = j = -1 and the label is ""),
    and inf for a pair whose sinh overflows.

    The differences a_i - b_j are formed once and each shift is added to
    them in one scratch matrix.  Coordinates of shape (..., n) give one
    result per row: gap, i, j and label are arrays of shape (...), numpy
    scalars for a single family.
    """
    a = np.asarray(a, dtype=complex)
    other = a if b is None else np.asarray(b, dtype=complex)
    d = a[..., :, None] - other[..., None, :]
    stack = d.shape[:-2]
    gaps = np.empty(stack + (len(shifts),) + d.shape[-2:])
    shifted = np.empty_like(d)
    with np.errstate(over="ignore"):
        for k, s in enumerate(shifts.values()):
            np.add(d, s, out=shifted)
            np.abs(np.sinh(shifted, out=shifted), out=gaps[..., k, :, :])
    if b is None:
        gaps[..., diagonal_mask(a.shape[-1])] = np.inf
    flat = gaps.reshape(stack + (math.prod(gaps.shape[-3:]),))
    labels = np.array(list(shifts) + [""])  # labels[-1]: no pair
    if flat.shape[-1] == 0:
        gap, k = np.full(stack, np.inf), np.full(stack, -1)
        i = j = k
    else:
        # min is the entry argmin finds, a nan where there is one.
        gap = flat.min(axis=-1)
        k, i, j = np.unravel_index(flat.argmin(axis=-1), gaps.shape[-3:])
    return gap[()], i[()], j[()], labels[k]


def require_sinh_gap(
    a, b, shifts: dict, tol, error=GeneralPositionViolated, names=("x", "x"), row=None
):
    """Raise ``error`` naming the pair and the shift when some
    |sinh(a_i - b_j + s)| <= tol (see smallest_sinh_gap); ``names`` are
    the symbols of the two families in the message.  On stacked
    coordinates the first row (in C order) that fails names the pair,
    and ``row``, if given, words that row from its flat index to lead
    the message."""
    gap, i, j, label = smallest_sinh_gap(a, b, shifts)
    rows = np.flatnonzero(gap <= tol)
    if rows.size:
        first = [np.ravel(v)[rows[0]] for v in (gap, i, j, label)]
        lead = "" if row is None else f"{row(rows[0])} has "
        raise error(f"{lead}{sinh_gap_words(*first, names)} <= {tol:g}")


def require_sinh_eta(eta):
    """Raise GeneralPositionViolated unless |sinh(eta)| > GENERAL_POSITION_TOL."""
    size = abs(np.sinh(complex(eta)))
    if size <= GENERAL_POSITION_TOL:
        raise GeneralPositionViolated(f"|sinh(eta)| = {size:.3e} <= {GENERAL_POSITION_TOL:g}")


def sinh_gap_words(gap, i, j, label, names: tuple[str, str]) -> str:
    """A smallest_sinh_gap result in words: "|sinh(x_1 - x_2 + eta)| = 1.000e-10"."""
    return f"|sinh({names[0]}_{i + 1} - {names[1]}_{j + 1}{label})| = {gap:.3e}"


def complex_sort_key(values) -> tuple[float, ...]:
    """Lexicographic key over the (re, im) parts of a complex sequence.

    Real parts compare at 9 significant digits, so values whose real
    parts agree up to rounding, such as a complex-conjugate pair, are
    ordered by their imaginary parts.
    """
    # From a list, not a generator: the key is allocated at its final size (README, Memory).
    return tuple([part for z in values for part in (float(f"{z.real:.9g}"), z.imag)])


def lagrange_vandermonde_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse transpose of the Vandermonde matrix V_ij = t_i^(j-1).

    Row i holds the coefficients (ascending powers) of the Lagrange
    basis polynomial through the nodes ``t``, so that the returned B
    satisfies B @ V^T = I.  Built from products of node differences,
    which stays accurate where LU on V^T would not: step j multiplies
    every numerator but the j-th by (z - t_j).
    """
    t = np.asarray(t, dtype=complex)
    others = ~diagonal_mask(t.size)
    num = np.zeros((t.size, t.size), dtype=complex)
    num[:, :1] = 1.0
    for j, rows in enumerate(others):
        num[rows, 1:] = num[rows, :-1] - t[j] * num[rows, 1:]
        num[rows, 0] *= -t[j]
    den = np.prod(np.where(others, t[:, None] - t, 1.0), axis=1)
    return num / den[:, None]
