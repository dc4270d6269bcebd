"""Scale-invariant SDR, its improvement metric, and permutation-invariant
assignment over speaker estimates."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InvalidReferenceError, NumericalError

_DB_SCALE = 10.0 / math.log(10.0)  # 10 * log10(x) == _DB_SCALE * ln(x)
_EPS = 1e-8  # si_sdr's energy guard for the metric and the loss


def si_sdr(est, ref, eps: float = _EPS) -> ad.Tensor:
    """Scale-invariant SDR in dB, as one primitive differentiable in ``est``.

    Both signals are centered first; the reference is then rescaled to the
    projection of the estimate onto it, and the ratio of projection energy
    to residual energy is reported, with ``eps`` guarding both ends. The
    value is computed in float64 whatever the inputs' dtype; the gradient
    reaching ``est`` has ``est``'s dtype.
    """
    est, ref = ad.as_tensor(est), ad.as_tensor(ref)
    if est.shape != ref.shape or est.ndim != 1:
        raise ConfigError(
            f"si_sdr expects matching 1-D signals, got {est.shape} "
            f"and {ref.shape}"
        )
    e = np.asarray(est.data, dtype=np.float64)
    r = np.asarray(ref.data, dtype=np.float64)
    e = e - e.mean()
    r = r - r.mean()
    if float(np.dot(r, r)) == 0.0:
        raise InvalidReferenceError(
            "reference signal is constant (zero after centering)"
        )
    rr = (r * r).sum()
    ref_energy = rr + eps
    alpha = (e * r).sum() / ref_energy
    target = alpha * r
    residual = e - target
    target_energy = (target * target).sum() + eps
    residual_energy = (residual * residual).sum() + eps
    value = np.log(target_energy / residual_energy) * _DB_SCALE
    dtype = est.dtype

    def backward(g):
        # d/de of _DB_SCALE * (ln target_energy - ln residual_energy),
        # where alpha = (e . r) / ref_energy also depends on e
        d_target = 2.0 * alpha / (ref_energy * target_energy)
        d_residual = 2.0 / residual_energy
        ge = r * (d_target * rr
                  + d_residual * (residual * r).sum() / ref_energy)
        ge -= d_residual * residual
        # adjoint of the centering: subtract the mean gradient
        ge -= ge.mean()
        ge *= g * _DB_SCALE
        return (ge.astype(dtype, copy=False),)

    return ad.make_op(value, (est,), backward)


def si_sdri(est, mix, ref) -> ad.Tensor:
    """Improvement of the estimate over the unprocessed mixture, in dB."""
    return ad.sub(si_sdr(est, ref), si_sdr(mix, ref))


def pit_loss(ests, refs) -> tuple[ad.Tensor, tuple[int, ...]]:
    """Best-permutation negative mean SI-SDR.

    Returns (loss, perm) where perm[i] is the estimate index assigned to
    reference i. The search is exhaustive; ties keep the lexicographically
    smallest permutation. Only the winning assignment contributes to the
    returned graph. When no permutation scores finite, ``NumericalError``
    names the first non-finite (estimate, reference) pair.
    """
    n = len(refs)
    if len(ests) != n:
        raise ConfigError(f"got {len(ests)} estimates for {n} references")
    if n < 1:
        raise ConfigError("pit_loss needs at least one speaker")
    if n > 4:
        raise ConfigError(
            f"exhaustive permutation search supports at most 4 speakers, got {n}"
        )
    scores = [[si_sdr(e, r) for r in refs] for e in ests]
    best_perm = None
    best_value = -math.inf
    for perm in itertools.permutations(range(n)):
        value = sum(scores[perm[i]][i].item() for i in range(n)) / n
        if value > best_value:
            best_value = value
            best_perm = perm
    if best_perm is None:
        e, r = next((e, r) for e in range(n) for r in range(n)
                    if not math.isfinite(scores[e][r].item()))
        raise NumericalError(f"non-finite SI-SDR {scores[e][r].item()} for "
                             f"estimate {e} against reference {r}")
    total = scores[best_perm[0]][0]
    for i in range(1, n):
        total = ad.add(total, scores[best_perm[i]][i])
    return ad.neg(ad.div(total, float(n))), best_perm
