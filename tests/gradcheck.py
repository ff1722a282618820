"""The central-difference gradient check over loss handles.

Every training objective returns a loss handle (``.value``,
``.backward()``); ``worst_gradient_error`` holds the gradients one handle's
``backward()`` gives against central differences of the loss, and returns
the largest relative error ``|analytic - numeric| / max(|numeric|, 1e-6)``
(acceptance criterion 1's measure). Each caller asserts its own tolerance.
"""

from __future__ import annotations


def worst_gradient_error(objective, theta, keys, step=1e-4, reference=None):
    """Largest relative error of ``objective(theta).backward()`` over every
    entry of ``theta[key]`` for ``key`` in ``keys``. The differences are
    taken of ``reference(theta)``, by default the handle's own value; each
    entry is moved in place by ``step`` either way and then restored."""
    grads = objective(theta).backward()
    reference = reference or (lambda theta: objective(theta).value)
    worst = 0.0
    for key in keys:
        flat, analytic = theta[key].reshape(-1), grads[key].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = reference(theta)
            flat[i] = original - step
            down = reference(theta)
            flat[i] = original
            numeric = (up - down) / (2 * step)
            worst = max(worst, abs(analytic[i] - numeric) / max(abs(numeric), 1e-6))
    return worst
