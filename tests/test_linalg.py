"""Exact assignment in linalg: _assignment, match_multisets and
ipi_distance against scipy's linear_sum_assignment as the reference;
the order of complex sequences under complex_sort_key; the Lagrange
inverse against a per-row build and against LU."""

import numpy as np
import pytest

from vertexdual.linalg import (
    _assignment,
    complex_sort_key,
    ipi_distance,
    lagrange_vandermonde_inverse,
    match_multisets,
    rel_diff,
)

SIZES = range(1, 11)
DRAWS_PER_SIZE = 70


def _pairs(rng, kind, n):
    """Complex values and targets of one kind: uniform, small integers
    (many ties) or a perturbed permutation of the values."""
    if kind == "uniform":
        return rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))
    if kind == "integer":
        return (rng.integers(-2, 3, (2, n)) + 1j * rng.integers(-1, 2, (2, n))).astype(complex)
    values = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return values, rng.permutation(values) + 1e-3 * rng.standard_normal(n)


def _cost_matrices(rng):
    """Uniform, small-integer and |a_i - b_j| cost matrices, n = 1..10."""
    for n in SIZES:
        for _ in range(DRAWS_PER_SIZE):
            yield rng.uniform(0, 1, (n, n))
            yield rng.integers(0, 4, (n, n)).astype(float)
            a, b = rng.uniform(-1, 1, (2, n))
            yield np.abs(a[:, None] - b[None, :])


def test_assignment_is_an_optimal_permutation():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(20)
    count = hungarian = 0
    for cost in _cost_matrices(rng):
        n = cost.shape[0]
        cols = _assignment(cost)
        assert sorted(cols.tolist()) == list(range(n))
        rows, ref = linear_sum_assignment(cost)
        assert abs(cost[np.arange(n), cols].sum() - cost[rows, ref].sum()) <= 1e-12
        count += 1
        hungarian += len(set(np.argmin(cost, axis=1).tolist())) < n
    assert count >= 2000
    # Both the argmin shortcut and the augmenting-path search were tested.
    assert min(hungarian, count - hungarian) >= 300


@pytest.mark.parametrize("kind", ["uniform", "integer", "permuted"])
def test_match_multisets_and_ipi_distance_match_reference(kind):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(21)
    for n in SIZES:
        for _ in range(DRAWS_PER_SIZE):
            values, targets = _pairs(rng, kind, n)

            cost = np.abs(values[:, None] - targets[None, :]) / np.maximum(np.abs(targets[None, :]), 1e-12)
            rows, cols = linear_sum_assignment(cost)
            perm, errors = match_multisets(values, targets)
            assert sorted(perm.tolist()) == list(range(n))
            np.testing.assert_array_equal(errors, cost[np.arange(n), perm])

            diff = values[:, None] - targets[None, :]
            diff = diff - 1j * np.pi * np.round(diff.imag / np.pi)
            r, c = linear_sum_assignment(np.abs(diff))
            reference = float(np.max(np.abs(diff[r, c])))
            if kind == "integer":
                # Tied optima may pair different values; the minimal sum
                # is what the assignment fixes.  A zero target costs 1e12,
                # so the sums agree relative to their size.
                best = cost[rows, cols].sum()
                assert abs(errors.sum() - best) <= 1e-12 * max(1.0, best)
            else:
                np.testing.assert_array_equal(errors, cost[rows, cols])
                assert ipi_distance(values, targets) == reference


def test_assignment_edge_cases():
    assert _assignment(np.zeros((0, 0))).size == 0
    assert ipi_distance([], []) == 0.0
    assert ipi_distance([0.0], [0.0, 1.0]) == np.inf
    with pytest.raises(ValueError, match="square"):
        _assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        _assignment(np.array([[0.0, np.nan], [1.0, 0.0]]))
    # Every row's cheapest column is column 0: the search must move rows.
    cost = np.array([[0.0, 1.0, 5.0], [0.1, 4.0, 2.0], [0.2, 0.3, 9.0]])
    assert _assignment(cost).tolist() == [0, 2, 1]


def test_stacked_match_multisets_equals_row_calls():
    rng = np.random.default_rng(24)
    n = 5
    # Equal magnitudes: the value 0 costs exactly 1 against every target.
    targets = np.exp(2j * np.pi * np.arange(n) / n + 0.1)
    rows = [targets[rng.permutation(n)] + 1e-3 * rng.standard_normal(n) for _ in range(6)]
    rows.append(np.full(n, targets[2]) + 1e-2 * rng.standard_normal(n))  # one cheapest target
    rows.append(np.concatenate([[0.0], targets[1:]]))  # tie, argmin a permutation
    rows.append(np.concatenate([[0.0, 0.0], targets[2:]]))  # tie, argmin not a permutation
    values = np.array(rows).reshape(3, 3, n)
    perm, errors = match_multisets(values, targets)
    assert perm.shape == errors.shape == (3, 3, n)
    searched = 0
    for idx in np.ndindex(3, 3):
        row_perm, row_errors = match_multisets(values[idx], targets)
        assert np.array_equal(perm[idx], row_perm)
        assert np.array_equal(errors[idx], row_errors)
        cost = np.abs(values[idx][:, None] - targets) / np.abs(targets)
        searched += len(set(cost.argmin(axis=1).tolist())) < n
    assert searched == 2
    # The tied value goes to the lowest target index left open.
    assert perm[2, 1].tolist() == [0, 1, 2, 3, 4]
    assert perm[2, 2].tolist() == [0, 1, 2, 3, 4]


def test_sort_key_orders_rounding_pairs_by_imaginary_part():
    # Real parts one bit apart compare equal, so -Im comes first even where
    # the +Im member has the smaller real part.
    re = 0.1 + 0.2
    plus, minus = complex(re, 0.5), complex(np.nextafter(re, 1.0), -0.5)
    assert sorted([plus, minus], key=lambda z: complex_sort_key([z])) == [minus, plus]
    assert sorted([[plus, 1.0], [minus, 0.0]], key=complex_sort_key) == [[minus, 0.0], [plus, 1.0]]
    # Real parts that differ in the 8th digit still decide.
    low, high = complex(1.0, 5.0), complex(1.0000001, -5.0)
    assert sorted([high, low], key=lambda z: complex_sort_key([z])) == [low, high]


def _lagrange_rows(t):
    """Lagrange coefficients one row at a time, from np.poly of the
    other nodes (ascending powers)."""
    out = np.empty((t.size, t.size), dtype=complex)
    for i in range(t.size):
        others = np.delete(t, i)
        out[i] = np.atleast_1d(np.poly(others))[::-1] / np.prod(t[i] - others)
    return out


def test_lagrange_inverse_matches_per_row_reference():
    # Same products in another order, so equal to a few rounding units.
    rng = np.random.default_rng(22)
    for trial in range(400):
        n = 1 + trial % 8
        t = np.exp(2 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.3, 0.3, n)))
        diff = rel_diff(lagrange_vandermonde_inverse(t), _lagrange_rows(t))
        assert diff <= 20 * np.finfo(float).eps
    assert lagrange_vandermonde_inverse(np.zeros(0)).shape == (0, 0)
    # Nodes t = e^{2x} as the ladder factorizations take them: the result
    # inverts V^T, the Vandermonde in t transposed, against LU as well.
    five = np.random.default_rng(5)
    for x in ([0.3], [0.3, 1.1], five.uniform(0, 2, 5) + 1j * five.uniform(-0.4, 0.4, 5)):
        t = np.exp(2 * np.asarray(x, dtype=complex))
        b, vt = lagrange_vandermonde_inverse(t), np.vander(t, t.size, increasing=True).T
        assert rel_diff(b, _lagrange_rows(t)) <= 20 * np.finfo(float).eps
        assert rel_diff(b, np.linalg.inv(vt)) < 1e-12
        assert np.max(np.abs(b @ vt - np.eye(t.size))) < 1e-10
