"""Predictions for the bench observables, read from the bench's amplitude table.

With unit-modulus sources of relative phase psi, detector ``a`` reads
I_a = c_a + 2 Re(d_a e^{i psi}), A = ``bench.amplitudes``, c_a = sum_j
|A_aj|^2 and d_a = conj(A_a1) A_a2.  Averaging over psi gives every kind
of ``correlate.KIND_COLUMNS`` (Mandel & Wolf, *Optical Coherence and
Quantum Optics*, 1995, ch. 7-9), each detector normalised by its own c_a:

    g2_ab(tau) = 1 + 2 p2 Re(r_a conj(r_b)),   r_a = d_a / c_a   (``predict_g2``)

A field keeps its phase across a delay tau only while it does not jump, so
every interference term carries p2 = P(tau)^2, ``P`` the no-jump
probability of the renewal process of the dwells (``no_jump_probability``;
Cox, *Renewal Theory*, 1962).

For this bench the zero-delay values are the paper's closed forms in the
dynamical phase ``phi_d``, the solid angle ``omega`` enclosed on the
Poincaré sphere by the polariser loop R -> 4 -> L -> 3, and the visibility
V = 4b/(1+b)^2 of the intensity ratio b = <I2>/<I1> (``bench.balance``).
``predict_g2_cross`` and ``predict_g2_self`` state them as a reference:

    g2_cross(0) = 1 - V cos(phi_d + omega/2) / 2     (fringe, 1 -+ V/2)
    g2_self(0)  = 1 + V / 2                          (no loop: a static phase
                                                      cancels in <I_i I_i>)
    <I_i>       = (<I1> + <I2>) / 4

``term_audit`` expands the cross correlation into 16 terms, each a product
of the same per-detector ratios: 10 average to zero, four direct terms sum
to 1 (1/4 each at balance 1, each at phase 0), and the two geometric terms
carry V/4 each at the phase +-(phi_d + omega/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .bench import EPSILON_3, EPSILON_4, BenchConfig, amplitudes
from .correlate import KIND_COLUMNS
from .source import PhaseNoiseConfig, truncated_dwell_mean


def solid_angle_of_setup(phi3: float, phi4: float) -> float:
    """Solid angle 4*(phi4 - phi3) of the polariser lune, mod 4*pi in (-2*pi, 2*pi].

    The tests hold it to the solid angle of the R-4-L-3 loop on the Poincaré
    sphere, computed by ``tests/poincare_reference.py``.
    """
    lune = 4.0 * (phi4 - phi3)
    if not math.isfinite(lune):
        raise ValueError("4*(phi4 - phi3) must be finite for phi3, phi4")
    r = math.remainder(lune, 4.0 * math.pi)
    return r + 4.0 * math.pi if r <= -2.0 * math.pi else r


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


def _detector_ratios(bench: BenchConfig) -> list[list[list[complex]]]:
    """``R[a][j][k]`` = conj(A_aj) A_ak / c_a, ``A = amplitudes(bench)``, c_a = sum_j |A_aj|^2:
    each detector's field products normalised by its own mean intensity."""
    ratios = []
    for row in amplitudes(bench).tolist():
        c = sum(abs(a) ** 2 for a in row)
        ratios.append([[aj.conjugate() * ak / c for ak in row] for aj in row])
    return ratios


def predict_g2(bench: BenchConfig, p2=1.0) -> dict:
    """Every kind by ``SCAN_KINDS`` name, 1 + 2 p2 Re(r_a conj(r_b)) with r_a = d_a / c_a of the
    detector pair of ``KIND_COLUMNS``, at ``p2`` = P(tau)^2: the direct terms sum to <I_a><I_b>,
    every other survivor carries p2.  ``p2`` may be a numpy array; each value is then an array
    with the bits of the scalar call at each of its elements."""
    r = [detector[0][1] for detector in _detector_ratios(bench)]
    return {kind: 1.0 + 2.0 * p2 * (r[a] * r[b].conjugate()).real for kind, (a, b) in KIND_COLUMNS.items()}


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
    (conj(A3j) A3k / c_3)(conj(A4l) A4m / c_4) with ``A = bench.amplitudes``
    of ``bench`` (its balance included) and c_a = <I_a> = sum_j |A_aj|^2,
    so the survivor sum equals the predicted zero-delay cross correlation
    and no product overflows.  The dynamical phase is booked where ``A``
    books it, on the S2 -> D3 path, so the closed two-detector loop carries
    e^{i phi_d}.
    """
    r3, r4 = _detector_ratios(bench)
    terms = []
    for j, k, l, m in product((1, 2), repeat=4):
        label = f"D3:E{j}*E{k} D4:E{l}*E{m}"
        sign = int(EPSILON_3 ** ((j == 2) + (k == 2)) * EPSILON_4 ** ((l == 2) + (m == 2)))
        if (k == 1) + (m == 1) != (j == 1) + (l == 1):
            terms.append(AuditTerm(label, (j, k), (l, m), "vanishing", sign, 0.0, 0.0, 0j))
            continue
        value = r3[j - 1][k - 1] * r4[l - 1][m - 1]
        kind = "direct" if j == k and l == m else "geometric"
        rotated = value * sign
        phase = math.atan2(rotated.imag, rotated.real)
        terms.append(AuditTerm(label, (j, k), (l, m), kind, sign, abs(value), phase, value))
    return terms


def audit_survivor_sum(terms: list[AuditTerm]) -> float:
    """Sum of the surviving coefficients (imaginary parts cancel pairwise)."""
    total = sum(t.value for t in terms)
    return total.real
