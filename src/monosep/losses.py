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


def _centered(x) -> ad.Tensor:
    x = ad.as_tensor(x)
    return ad.sub(x, ad.mean_all(x))


def _energy(x) -> ad.Tensor:
    return ad.sum_all(ad.mul(x, x))


def si_sdr(est, ref, eps: float = _EPS) -> ad.Tensor:
    """Scale-invariant SDR in dB; differentiable in ``est``.

    Both signals are centered first; the reference is then rescaled to the
    projection of the estimate onto it, and the ratio of projection energy
    to residual energy is reported, with ``eps`` guarding both ends.
    """
    est_c = _centered(est)
    ref_c = _centered(ref)
    if est_c.shape != ref_c.shape or est_c.ndim != 1:
        raise ConfigError(
            f"si_sdr expects matching 1-D signals, got {est_c.shape} "
            f"and {ref_c.shape}"
        )
    if float(np.dot(ref_c.data, ref_c.data)) == 0.0:
        raise InvalidReferenceError(
            "reference signal is constant (zero after centering)"
        )
    alpha = ad.div(ad.sum_all(ad.mul(est_c, ref_c)),
                   ad.add(_energy(ref_c), eps))
    target = ad.mul(alpha, ref_c)
    residual = ad.sub(est_c, target)
    ratio = ad.div(ad.add(_energy(target), eps),
                   ad.add(_energy(residual), eps))
    return ad.mul(ad.log(ratio), _DB_SCALE)


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
