"""Closed-form predictions for the bench observables.

For phase-incoherent constant-modulus sources, the zero-delay correlations
depend only on the dynamical phase ``phi_d``, the solid angle ``omega``
enclosed on the Poincaré sphere by the polariser loop R -> 4 -> L -> 3, and
the visibility V = 4b/(1+b)^2 of the intensity ratio b = <I2>/<I1>
(``bench.balance``; V = 1 for equal intensities):

    g2_cross(0) = 1 - V cos(phi_d + omega/2) / 2     (fringe, 1 -+ V/2)
    g2_self(0)  = 1 + V / 2                          (no loop: a static phase
                                                      cancels in <I_i I_i>)
    <I_i>       = (<I1> + <I2>) / 4

A field keeps its phase across a delay tau only while it does not jump, so
every interference term carries P(tau)^2, ``P`` the no-jump probability of
the renewal process of the dwells (``no_jump_probability``; Cox, *Renewal
Theory*, 1962), and every kind reads 1 + P(tau)^2 (g2(0) - 1) (``predict_g2``).

``term_audit`` expands the 16-term product behind the cross correlation and
evaluates every coefficient from ``bench.amplitudes``, the table that
``bench.propagate`` reads and that books ``phi_d`` on the S2 -> D3 path:
10 terms average to zero, four direct terms sum to 1 (1/4 each at balance
1), and the two geometric terms carry V/4 each at the phase
+-(phi_d + omega/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .bench import EPSILON_3, EPSILON_4, BenchConfig, amplitudes
from .poincare import _wrap_pm_two_pi
from .source import PhaseNoiseConfig, truncated_dwell_mean


def solid_angle_of_setup(phi3: float, phi4: float) -> float:
    """Solid angle 4*(phi4 - phi3) of the polariser lune, in (-2*pi, 2*pi].

    Matches ``poincare.polygon_solid_angle`` of the R-4-L-3 loop exactly
    (both are reduced mod 4*pi to the same interval).
    """
    lune = 4.0 * (phi4 - phi3)
    if not math.isfinite(lune):
        raise ValueError("4*(phi4 - phi3) must be finite for phi3, phi4")
    return _wrap_pm_two_pi(lune)


def visibility(balance: float) -> float:
    """Fringe visibility 4b/(1+b)^2 of sources with intensity ratio b; 1 at b = 1."""
    if not (math.isfinite(balance) and balance > 0.0):
        raise ValueError("balance must be finite and > 0")
    try:
        return 4.0 * balance / (1.0 + balance) ** 2
    except OverflowError:  # (1 + b)^2 above the largest float; V(b) = V(1/b)
        return visibility(1.0 / balance)


def predict_g2_cross(phi_d: float, omega: float, balance: float = 1.0) -> float:
    """Zero-delay cross correlation 1 - V cos(phi_d + omega/2)/2."""
    if not (math.isfinite(phi_d) and math.isfinite(omega)):
        raise ValueError("arguments must be finite")
    return 1.0 - 0.5 * visibility(balance) * math.cos(phi_d + 0.5 * omega)


def predict_g2_self(balance: float = 1.0) -> float:
    """Zero-delay self correlation 1 + V/2: no loop, so no phase term."""
    return 1.0 + 0.5 * visibility(balance)


def no_jump_probability(source: PhaseNoiseConfig, tau: float) -> float:
    """P(tau) = 1 - (1/mu) int_0^tau S(u) du, tau >= 0: the chance that a field holds its phase
    across ``tau``, S the survival of a dwell and mu its mean.  P(0) = 1 exactly; 0 from t_max."""
    a, b, tc = source.t_min, source.t_max, source.t_c
    if tau >= b:
        return 0.0
    m, floor = max(tau, a), math.exp(-b / tc)  # S = 1 below a, (e^{-u/t_c} - floor) / (e^{-a/t_c} - floor) above
    held = min(tau, a) + (tc * (math.exp(-a / tc) - math.exp(-m / tc)) - (m - a) * floor) / (math.exp(-a / tc) - floor)
    return max(1.0 - held / truncated_dwell_mean(source), 0.0)


def predict_g2(bench: BenchConfig, p2: float = 1.0) -> dict[str, float]:
    """Every kind by ``SCAN_KINDS`` name, 1 + p2 (g2(0) - 1) at ``p2`` = P(tau)^2: the direct terms
    sum to <I_a><I_b>, every other survivor carries p2.  p2 = 1 gives the closed forms bit for bit."""
    cross = predict_g2_cross(bench.phi_d, solid_angle_of_setup(bench.phi3, bench.phi4), bench.balance)
    self_ = predict_g2_self(bench.balance)
    return {kind: 1.0 + p2 * (g - 1.0) for kind, g in (("cross", cross), ("self3", self_), ("self4", self_))}


@dataclass(frozen=True)
class AuditTerm:
    """One of the 16 products in the cross-correlation expansion.

    ``d3`` and ``d4`` give the (conjugated, unconjugated) source indices of
    the detector-3 and detector-4 intensity factors.  ``value`` is the term's
    time-averaged coefficient for phase-incoherent unit-intensity sources;
    ``sign`` collects the beam-splitter epsilon factors, and ``magnitude``/
    ``phase`` decompose value = sign * magnitude * e^{i phase}.
    """

    label: str
    d3: tuple[int, int]
    d4: tuple[int, int]
    kind: str  # "direct" | "geometric" | "vanishing"
    sign: int
    magnitude: float
    phase: float
    value: complex


def term_audit(bench: BenchConfig) -> list[AuditTerm]:
    """Expand <I3 I4> into its 16 terms and evaluate each coefficient.

    Sources are taken mutually phase-incoherent with unit intensity: a term
    survives time averaging only when each source field appears in a
    conjugate pair.  A surviving coefficient is
    conj(A3j) A3k conj(A4l) A4m / (<I3><I4>) with ``A = bench.amplitudes``
    of ``bench`` (its balance included) and <I_a> = sum_j |A_aj|^2, so the
    survivor sum equals the predicted zero-delay cross correlation.  The
    dynamical phase is booked where ``A`` books it, on the S2 -> D3 path, so
    the closed two-detector loop carries e^{i phi_d}.
    """
    a3, a4 = amplitudes(bench).tolist()
    norm = sum(abs(a) ** 2 for a in a3) * sum(abs(a) ** 2 for a in a4)
    terms = []
    for j, k, l, m in product((1, 2), repeat=4):
        label = f"D3:E{j}*E{k} D4:E{l}*E{m}"
        sign = int(EPSILON_3 ** ((j == 2) + (k == 2)) * EPSILON_4 ** ((l == 2) + (m == 2)))
        if (k == 1) + (m == 1) != (j == 1) + (l == 1):
            terms.append(AuditTerm(label, (j, k), (l, m), "vanishing", sign, 0.0, 0.0, 0j))
            continue
        value = a3[j - 1].conjugate() * a3[k - 1] * a4[l - 1].conjugate() * a4[m - 1] / norm
        kind = "direct" if j == k and l == m else "geometric"
        rotated = value * sign
        phase = math.atan2(rotated.imag, rotated.real)
        terms.append(AuditTerm(label, (j, k), (l, m), kind, sign, abs(value), phase, value))
    return terms


def audit_survivor_sum(terms: list[AuditTerm]) -> float:
    """Sum of the surviving coefficients (imaginary parts cancel pairwise)."""
    total = sum(t.value for t in terms)
    return total.real
