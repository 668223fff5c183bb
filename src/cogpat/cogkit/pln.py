"""Truth-value calculus: strength/confidence inference formulas under the
independence assumption, and the confidence-weighted information gain: the
KL divergence between the beta fits of two truth values, in closed form
(Penny 2001), with digamma by recurrence and asymptotic series (AS 103)."""

from __future__ import annotations

import math

from ..metagraph import TruthValue


class PlnError(Exception):
    pass


class SingularityError(PlnError):
    """A formula denominator vanished (certain or impossible middle term)."""


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def deduction(ab: TruthValue, bc: TruthValue, b_prior: float, c_prior: float) -> TruthValue:
    """Chain A->B and B->C into A->C.

    Strength follows the independence formula; evidence count is the weaker
    premise's count.
    """
    if b_prior >= 1.0:
        raise SingularityError("middle-term prior strength must be < 1")
    s = ab.s * bc.s + (1.0 - ab.s) * (c_prior - b_prior * bc.s) / (1.0 - b_prior)
    n = min(ab.n, bc.n)
    return TruthValue.from_count(_clamp01(s), n)


def inversion(ab: TruthValue, a_prior: float, b_prior: float) -> TruthValue:
    """Flip A->B into B->A by Bayes' rule on the strengths."""
    if b_prior <= 0.0:
        raise SingularityError("consequent prior strength must be > 0")
    s = ab.s * a_prior / b_prior
    return TruthValue.from_count(_clamp01(s), ab.n)


def _digamma(x: float) -> float:
    """psi(x) for x >= 1: recur up past 6, then the asymptotic series."""
    shift = 0.0
    while x < 6.0:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r / 132))))
    return math.log(x) - 0.5 / x - series - shift


def cwig(before: TruthValue, after: TruthValue) -> float:
    """Information gained moving from one truth value to another: the KL
    divergence of the after-beta from the before-beta, in nats, in closed
    form (the two-component case of the Dirichlet KL).  Both beta fits have
    parameters >= 1, the domain `_digamma` covers."""
    a1, b1 = after.beta_params
    a0, b0 = before.beta_params
    if (a1, b1) == (a0, b0):
        return 0.0
    lg = math.lgamma  # ln B(a0, b0) - ln B(a1, b1) on the next line
    return max(0.0, (
        lg(a0) + lg(b0) - lg(a0 + b0) - lg(a1) - lg(b1) + lg(a1 + b1)
        + (a1 - a0) * _digamma(a1)
        + (b1 - b0) * _digamma(b1)
        + (a0 - a1 + b0 - b1) * _digamma(a1 + b1)
    ))
