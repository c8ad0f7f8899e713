"""Central-difference gradient checking shared by the numeric test modules."""

import numpy as np


def numeric_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function at x, elementwise.

    The step is scaled per coordinate by max(1, |x_i|) so large and small
    parameters get comparable relative perturbations.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        h = step * max(1.0, abs(float(x[idx])))
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def max_rel_err(analytic, numeric):
    """Worst per-component relative error, guarded against tiny denominators."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def away_from_kinks(preacts, margin=1e-3):
    """True when every pre-activation is safely away from the rectifier kink."""
    return all(np.all(np.abs(z) > margin) for z in preacts)


def encoder_hidden_preacts(cache, params):
    """Each hidden encoder layer's preactivation, recomputed from its cached input."""
    return [x @ W + b for x, W, b in zip(cache.inputs[:-1], params.weights, params.biases)]


def gcn_hidden_preacts(cache, stack):
    """Each hidden GCN layer's preactivation, recomputed from its cached B G."""
    return [M @ W for M, W in zip(cache.inputs[:-1], stack.weights)]
