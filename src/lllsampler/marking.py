"""Markings: the constants alpha, beta, rho, lambda, the main theorem's
conditions, and marking construction by resampling.

All products of probabilities are kept in natural-log space.  The two
constructors draw candidate markings and resample until the per-constraint
deviation events they are designed around are all avoided, then re-verify the
chain's conditions; the whole construction retries with a fresh sub-seed on
verification failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import AtomicCsp, constraint_sums, memoized, per_entry
from .errors import (ConditionsError, ConstructionFailedError, RegimeError,
                     SamplerError)
from .kernels import LABEL_MARKING, RandomnessTape, derive_seed

DEFAULT_ZETA = 1e-5
DEFAULT_RETRY_CAP = 64
DEFAULT_MT_ITERATION_FACTOR = 10**4

# Fixed constants of the uniform binary construction.
UNIFORM_ETA = 0.595
UNIFORM_TAU1 = 0.23
UNIFORM_TAU2 = 0.245 - 3e-5
UNIFORM_ZETA = 1e-5
UNIFORM_GAMMA = 0.175


class Marking:
    """The marked set, as a read-only bool array over the variables
    (``mask``).  Equal markings are equal and hash alike, by the mask's
    bytes, so the per-instance memos keyed by marking hit for either."""

    def __init__(self, marked):
        mask = np.array(marked, dtype=bool)
        mask.flags.writeable = False
        self.mask = mask

    @functools.cached_property
    def marked(self) -> tuple[bool, ...]:
        """The flags as a tuple, for reads one variable at a time."""
        return tuple(self.mask.tolist())

    @functools.cached_property
    def _bytes(self) -> bytes:
        return self.mask.tobytes()

    def __eq__(self, other):
        return isinstance(other, Marking) and self._bytes == other._bytes

    def __hash__(self):
        return hash(self._bytes)

    def __repr__(self):
        return f"Marking.from_indices({len(self.mask)}, {self.indices()})"

    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    @staticmethod
    def empty(n: int) -> "Marking":
        return Marking(np.zeros(n, dtype=bool))

    @staticmethod
    def from_indices(n: int, idx) -> "Marking":
        return Marking(np.isin(np.arange(n), list(idx)))


@dataclass(frozen=True)
class MarkingConstants:
    """ln(alpha), ln(beta), ln(rho), ln(lambda).

    ``log_beta`` (and the quantities depending on it) is None when
    e*alpha > 1.
    """

    log_alpha: float
    log_beta: float | None
    log_rho: float | None
    log_lambda: float | None


def compute_constants(csp: AtomicCsp, m: Marking) -> MarkingConstants:
    """The marking-dependent constants, in natural-log space, each the
    largest of a sum per constraint over its unmarked or marked entries.

    alpha is always computable; beta, rho, lambda require e*alpha <= 1 and are
    None otherwise.
    """
    if len(m.mask) != csp.num_vars:
        raise SamplerError("marking length does not match variable count")
    flat = csp.flat
    marked = m.mask[flat.cons_vars]
    la = constraint_sums(flat, np.where(marked, 0.0, flat.log_w))
    log_alpha = float(la.max(initial=-math.inf))
    # beta is defined only when e*alpha < 1, i.e. 1 + ln(alpha) < 0
    if 1.0 + log_alpha >= 0.0:
        return MarkingConstants(log_alpha, None, None, None)
    log_beta = -csp.measures.d * math.log1p(-math.exp(1.0 + log_alpha))
    beta = math.exp(log_beta)
    lr = constraint_sums(flat, np.where(marked, log_beta + flat.log_w, 0.0))
    # lambda's term per (spec, value)
    term = np.zeros((len(flat.specs), flat.cum_table.shape[1] + 1))
    for g, s in enumerate(flat.specs):
        term[g, :s.domain_size] = [
            math.log(beta * w + (beta - 1.0) * (s.domain_size - 2))
            for w in s.weights]
    entry_term = per_entry(term, flat.entry_spec, flat.cons_fals)
    ll = constraint_sums(
        flat, np.where(marked, entry_term, 0.0),
        first=[2.0 * math.log(k) for k in flat.arity.tolist()])
    return MarkingConstants(log_alpha, log_beta,
                            float(lr.max(initial=-math.inf)),
                            float(ll.max(initial=-math.inf)))


def constants(csp: AtomicCsp, m: Marking) -> MarkingConstants:
    """``compute_constants(csp, m)``, computed once per marking and kept on
    the instance."""
    return memoized(csp, compute_constants, m)


@dataclass(frozen=True)
class ConditionReport:
    """The three chain conditions with their ln-scale slack (negative slack
    means the condition holds)."""

    alpha_ok: bool
    alpha_slack: float
    rho_ok: bool
    rho_slack: float
    lambda_ok: bool
    lambda_slack: float
    passed: bool

    def as_dict(self):
        return {
            "e_alpha_delta_le_1": self.alpha_ok,
            "e_alpha_delta_log_slack": self.alpha_slack,
            "e_delta2_rho_le_1_32": self.rho_ok,
            "e_delta2_rho_log_slack": self.rho_slack,
            "delta2_lambda_le_1_16": self.lambda_ok,
            "delta2_lambda_log_slack": self.lambda_slack,
            "passed": self.passed,
        }


def check_theorem_conditions(csp: AtomicCsp, m: Marking) -> ConditionReport:
    """e*alpha*Delta <= 1, e*Delta^2*rho <= 1/32, Delta^2*lambda <= 1/16,
    compared on the ln scale with zero tolerance.  Failures are data."""
    consts = constants(csp, m)
    meas = csp.measures
    if meas.delta == 0:
        return ConditionReport(True, -math.inf, True, -math.inf, True,
                               -math.inf, True)
    log_delta = math.log(meas.delta)
    a_slack = 1.0 + consts.log_alpha + log_delta
    if consts.log_beta is None:
        return ConditionReport(a_slack <= 0.0, a_slack, False, math.inf,
                               False, math.inf, False)
    r_slack = 1.0 + 2.0 * log_delta + consts.log_rho + math.log(32.0)
    l_slack = 2.0 * log_delta + consts.log_lambda + math.log(16.0)
    a_ok, r_ok, l_ok = a_slack <= 0.0, r_slack <= 0.0, l_slack <= 0.0
    return ConditionReport(a_ok, a_slack, r_ok, r_slack, l_ok, l_slack,
                           a_ok and r_ok and l_ok)


def kl_divergence(a: float, b: float) -> float:
    """Base-2 Kullback-Leibler divergence between Bernoulli(a) and
    Bernoulli(b)."""
    if not 0.0 < b < 1.0:
        raise ValueError("kl_divergence requires 0 < b < 1")
    if not 0.0 <= a <= 1.0:
        raise ValueError("kl_divergence requires 0 <= a <= 1")

    def term(x, y):
        return 0.0 if x == 0.0 else x * math.log2(x / y)

    return term(a, b) + term(1.0 - a, 1.0 - b)


def moser_tardos(csp: AtomicCsp, sample, violated,
                 iteration_factor: int = DEFAULT_MT_ITERATION_FACTOR):
    """Resampling engine with one bad event per constraint of ``csp``.

    ``sample(vs)`` draws values for the ascending variable array ``vs``;
    ``violated(values)`` flags the constraints whose event holds.  The
    variables of the lowest flagged constraint are resampled, in ascending
    order, until no event holds.  Deterministic given ``sample``.
    """
    flat = csp.flat
    values = sample(np.arange(csp.num_vars))
    if not len(flat.arity):
        return values
    cap = iteration_factor * len(flat.arity)
    for _ in range(cap):
        flags = violated(values)
        if not flags.any():
            return values
        ci = int(flags.argmax())
        start = flat.starts[ci]
        vs = np.sort(flat.cons_vars[start:start + flat.arity[ci]])
        values[vs] = sample(vs)
    raise ConstructionFailedError(
        f"resampling did not converge within {cap} iterations")


def binary_gamma(kappa: float, zeta: float) -> tuple[float, float, float]:
    """(gamma, eta, tau) closed forms of the binary-domain marking analysis."""
    lk = math.log(kappa + 1.0)
    root = math.sqrt(lk * lk + 6.0 * (1.0 - 3.0 * zeta) * lk)
    tau = (-lk + root) / 6.0
    eta = (2.0 - tau + 3.0 * zeta) / 3.0
    gamma = 1.0 / 3.0 - zeta - (-lk + root) / 9.0
    return gamma, eta, tau


def _resample_marking(csp, eta, violated, seed, label, name) -> Marking:
    """Bernoulli(eta) marks resampled until no ``violated`` event holds,
    kept once the chain conditions pass; each attempt reads the tape of
    ``derive_seed(seed, label, attempt)``."""
    for attempt in range(DEFAULT_RETRY_CAP):
        tape = RandomnessTape(derive_seed(seed, label, attempt))
        stream = tape.stream(0, LABEL_MARKING)
        marks = moser_tardos(
            csp, lambda vs: stream.uniforms(len(vs)) < eta, violated)
        marking = Marking(marks)
        if check_theorem_conditions(csp, marking).passed:
            return marking
    raise ConstructionFailedError(
        f"{name} marking construction failed after {DEFAULT_RETRY_CAP} "
        "attempts")


def _binary_events(csp, eta, tau):
    """Deviation events of the binary construction, in nats, as a
    ``violated`` over marks.

    Event for C: |sum_{v in vbl(C) marked} ln D_v(sigma_False(v))
    - eta ln p_C| > tau ln(1/p_C).
    """
    flat = csp.flat
    log_pc = flat.log_pc

    def violated(marks):
        s = constraint_sums(flat, np.where(marks[flat.cons_vars], flat.log_w,
                                           0.0))
        return np.abs(s - eta * log_pc) > tau * -log_pc

    return violated


def check_necessary_bound(meas) -> None:
    """Raise ``RegimeError`` when no marking can pass the main theorem's
    conditions.

    For every constraint C and marking, p_C <= alpha*rho since beta >= 1, so
    e*alpha*Delta <= 1 and e*Delta^2*rho <= 1/32 need
    p <= 1/(32 e^2 Delta^3).  The 1e-9 slack lets p and Delta be read on the
    instance before tensorization, where they agree with the tensorized
    base's only to that tolerance."""
    if not meas.delta:
        return
    log_bound = -(2.0 + math.log(32.0) + 3.0 * math.log(meas.delta))
    if meas.log_p > log_bound + 1e-9:
        raise RegimeError(
            f"no marking can pass the theorem's conditions: ln p="
            f"{meas.log_p:.4f} > ln(1/(32 e^2 Delta^3))={log_bound:.4f} "
            f"with Delta={meas.delta}")


def construct_marking_binary(csp: AtomicCsp, seed: int = 0) -> Marking:
    """Marking for all-binary domains: i.i.d. Bernoulli(eta) marks resampled
    until no constraint's deviation event holds, then the chain conditions are
    re-verified; retries with a fresh sub-seed on failure."""
    meas = csp.measures
    if meas.q > 2:
        raise RegimeError("binary marking construction needs binary domains")
    check_necessary_bound(meas)
    _, eta, tau = binary_gamma(meas.kappa, DEFAULT_ZETA)
    return _resample_marking(csp, eta, _binary_events(csp, eta, tau), seed,
                             "marking-binary", "binary")


def _uniform_binary_events(csp):
    """Asymmetric two-sided events of the uniform binary construction, as a
    ``violated`` over marks.

    With uniform binary domains the marked log2-mass of C is -(#marked in
    vbl(C)), so the events reduce to a window on the marked count."""
    flat = csp.flat
    lo = (UNIFORM_ETA - UNIFORM_TAU2) * flat.arity
    hi = (UNIFORM_ETA + UNIFORM_TAU1) * flat.arity

    def violated(marks):
        mc = np.add.reduceat(marks[flat.cons_vars].astype(np.int64),
                             flat.starts)
        return (mc < lo) | (mc > hi)

    return violated


def construct_marking_uniform_binary(csp: AtomicCsp, seed: int = 0) -> Marking:
    """Marking for uniform binary domains with the fixed constants
    eta=0.595, tau1=0.23, tau2=0.245-3e-5."""
    meas = csp.measures
    if meas.q > 2 or meas.kappa != 1.0:
        raise RegimeError(
            "uniform binary marking construction needs uniform binary domains")
    check_necessary_bound(meas)
    return _resample_marking(csp, UNIFORM_ETA, _uniform_binary_events(csp),
                             seed, "marking-uniform", "uniform binary")
