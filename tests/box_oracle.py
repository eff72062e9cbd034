"""The per-setting loops of the box functions, kept as an independent oracle
for their whole-array forms in ``nonlocality.correlations``.

Each function walks the setting pairs (x, y) one at a time and takes the
marginals of one 2x2 outcome table at a time, as the box code did before it
ran as array reductions. They return plain arrays and floats, so a test can
compare them with the library's results byte for byte.
"""

import math

import numpy as np


def marginal_a(probs, x, y):
    return probs[x, y].sum(axis=1)


def marginal_b(probs, x, y):
    return probs[x, y].sum(axis=0)


def correlations(probs):
    def one(x, y):
        p = probs[x, y]
        return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])

    return np.array([[one(x, y) for y in (0, 1)] for x in (0, 1)])


def lifted_probs(e):
    """``box_from_correlation``'s table for a 2x2 array of correlations."""
    probs = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            same = (1.0 + e[x, y]) / 4.0
            diff = (1.0 - e[x, y]) / 4.0
            probs[x, y] = [[same, diff], [diff, same]]
    return probs


def product_probs(p_plus_a, p_plus_b):
    pa = [np.array([p, 1.0 - p]) for p in map(float, p_plus_a)]
    pb = [np.array([p, 1.0 - p]) for p in map(float, p_plus_b)]
    probs = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y] = np.outer(pa[x], pb[y])
    return probs


def no_signalling_deviation(probs):
    dev = 0.0
    for x in (0, 1):
        dev = max(dev, float(np.max(np.abs(marginal_a(probs, x, 0) - marginal_a(probs, x, 1)))))
    for y in (0, 1):
        dev = max(dev, float(np.max(np.abs(marginal_b(probs, 0, y) - marginal_b(probs, 1, y)))))
    return dev


def jammed_probs(probs, strength):
    """``apply_jamming``'s mixed table, before box validation clips it."""
    jammed = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            jammed[x, y] = np.outer(marginal_a(probs, x, y), marginal_b(probs, x, y))
    return strength * jammed + (1.0 - strength) * probs


def unary_deviation(original, jammed):
    dev = 0.0
    for x in (0, 1):
        for y in (0, 1):
            dev = max(dev, float(np.max(np.abs(marginal_a(original, x, y) - marginal_a(jammed, x, y)))))
            dev = max(dev, float(np.max(np.abs(marginal_b(original, x, y) - marginal_b(jammed, x, y)))))
    return dev


def sample_statistics(counts, n):
    """Correlations, estimate and standard error of ``sample_outcomes`` from
    its counts, in numpy's int64 arithmetic."""
    counts = np.array(counts, dtype=np.int64)
    corr = np.empty((2, 2))
    var = np.empty((2, 2))
    for x in (0, 1):
        for y in (0, 1):
            c = counts[x, y]
            p_same = (c[0, 0] + c[1, 1]) / n
            corr[x, y] = 2.0 * p_same - 1.0
            var[x, y] = 4.0 * p_same * (1.0 - p_same) / n
    estimate = corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]
    return corr, float(estimate), math.sqrt(var.sum())
