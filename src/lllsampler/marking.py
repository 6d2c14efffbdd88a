"""Markings: the constants alpha, beta, rho, lambda, the main theorem's
conditions, and marking construction by resampling.

All products of probabilities are kept in natural-log space.  The two
constructors draw candidate markings and resample until the per-constraint
deviation events they are designed around are all avoided, then re-verify the
chain's conditions; the whole construction retries with a fresh sub-seed on
verification failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AtomicCsp
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


@dataclass(frozen=True)
class Marking:
    """Per-variable membership flags for the marked set."""

    marked: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "marked", tuple(bool(x) for x in self.marked))

    def indices(self) -> tuple[int, ...]:
        return tuple(v for v, m in enumerate(self.marked) if m)

    @staticmethod
    def empty(n: int) -> "Marking":
        return Marking((False,) * n)

    @staticmethod
    def from_indices(n: int, idx) -> "Marking":
        s = set(idx)
        return Marking(tuple(v in s for v in range(n)))


@dataclass(frozen=True)
class MarkingConstants:
    """ln(alpha), ln(beta), ln(rho), ln(lambda) plus per-constraint values.

    ``log_beta`` (and the quantities depending on it) is None when
    e*alpha > 1.
    """

    log_alpha: float
    log_alpha_per_constraint: tuple[float, ...]
    log_beta: float | None
    log_rho: float | None
    log_rho_per_constraint: tuple[float, ...] | None
    log_lambda: float | None
    log_lambda_per_constraint: tuple[float, ...] | None


def compute_constants(csp: AtomicCsp, m: Marking) -> MarkingConstants:
    """The marking-dependent constants, in natural-log space.

    alpha is always computable; beta, rho, lambda require e*alpha <= 1 and are
    None otherwise.
    """
    if len(m.marked) != csp.num_vars:
        raise SamplerError("marking length does not match variable count")
    meas = csp.measures
    la_per = []
    for c in csp.constraints:
        la_per.append(sum(csp.vars[v].log_weights[q]
                          for v, q in zip(c.vbl, c.falsifying)
                          if not m.marked[v]))
    log_alpha = max(la_per, default=-math.inf)
    # beta is defined only when e*alpha < 1, i.e. 1 + ln(alpha) < 0
    if 1.0 + log_alpha >= 0.0:
        return MarkingConstants(log_alpha, tuple(la_per), None, None, None,
                                None, None)
    log_beta = -meas.d * math.log1p(-math.exp(1.0 + log_alpha))
    beta = math.exp(log_beta)
    lr_per = []
    ll_per = []
    for c in csp.constraints:
        lr = 0.0
        ll = 2.0 * math.log(len(c.vbl))
        for v, q in zip(c.vbl, c.falsifying):
            if not m.marked[v]:
                continue
            w = csp.vars[v].weights[q]
            lr += log_beta + math.log(w)
            ll += math.log(beta * w + (beta - 1.0) * (csp.vars[v].domain_size - 2))
        lr_per.append(lr)
        ll_per.append(ll)
    log_rho = max(lr_per, default=-math.inf)
    log_lambda = max(ll_per, default=-math.inf)
    return MarkingConstants(log_alpha, tuple(la_per), log_beta, log_rho,
                            tuple(lr_per), log_lambda, tuple(ll_per))


def constants(csp: AtomicCsp, m: Marking) -> MarkingConstants:
    """``compute_constants(csp, m)``, computed once per marking and kept on
    the instance."""
    consts = csp.constants_memo.get(m)
    if consts is None:
        consts = csp.constants_memo[m] = compute_constants(csp, m)
    return consts


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


def moser_tardos(num_vars: int, sample_var, bad_events, stream,
                 iteration_factor: int = DEFAULT_MT_ITERATION_FACTOR):
    """Generic resampling engine.

    ``sample_var(i, stream)`` draws the i-th auxiliary variable; each bad
    event is (variable indices, predicate over the full value list).  The
    lowest-index violated event is resampled first; the result violates no
    event.  Deterministic given the stream.
    """
    values = [sample_var(i, stream) for i in range(num_vars)]
    if not bad_events:
        return values
    cap = iteration_factor * len(bad_events)
    for _ in range(cap):
        violated = None
        for ei, (_, pred) in enumerate(bad_events):
            if pred(values):
                violated = ei
                break
        if violated is None:
            return values
        for v in sorted(bad_events[violated][0]):
            values[v] = sample_var(v, stream)
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


def _binary_events(csp, eta, tau):
    """Deviation events of the binary construction, in nats.

    Event for C: |sum_{v in vbl(C) marked} ln D_v(sigma_False(v))
    - eta ln p_C| > tau ln(1/p_C).
    """
    events = []
    for c in csp.constraints:
        terms = [(v, csp.vars[v].log_weights[q])
                 for v, q in zip(c.vbl, c.falsifying)]
        log_pc = sum(t for _, t in terms)

        def pred(marks, terms=terms, log_pc=log_pc):
            s = sum(t for v, t in terms if marks[v])
            return abs(s - eta * log_pc) > tau * (-log_pc)

        events.append((tuple(v for v, _ in terms), pred))
    return events


def construct_marking_binary(csp: AtomicCsp, zeta: float = DEFAULT_ZETA,
                             seed: int = 0,
                             check_regime: bool = True) -> Marking:
    """Marking for all-binary domains: i.i.d. Bernoulli(eta) marks resampled
    until no constraint's deviation event holds, then the chain conditions are
    re-verified; retries with a fresh sub-seed on failure."""
    meas = csp.measures
    if meas.q > 2:
        raise RegimeError("binary marking construction needs binary domains")
    gamma, eta, tau = binary_gamma(meas.kappa, zeta)
    threshold = math.log(0.01 * zeta / meas.kappa)
    if check_regime and gamma * meas.log_p + math.log(max(meas.delta, 1)) > threshold:
        raise RegimeError(
            f"regime p^gamma*Delta <= 0.01*zeta/kappa fails: gamma={gamma:.4f}"
            f" ln p={meas.log_p:.4f} Delta={meas.delta} kappa={meas.kappa:.4f}")
    events = _binary_events(csp, eta, tau)

    def sample_mark(i, stream):
        return stream.next_uniform() < eta

    for attempt in range(DEFAULT_RETRY_CAP):
        tape = RandomnessTape(derive_seed(seed, "marking-binary", attempt))
        stream = tape.stream(0, LABEL_MARKING)
        marks = moser_tardos(csp.num_vars, sample_mark, events, stream)
        marking = Marking(tuple(marks))
        if check_theorem_conditions(csp, marking).passed:
            return marking
    raise ConstructionFailedError(
        f"binary marking construction failed after {DEFAULT_RETRY_CAP} "
        "attempts")


def _uniform_binary_events(csp):
    """Asymmetric two-sided events of the uniform binary construction.

    With uniform binary domains the marked log2-mass of C is -(#marked in
    vbl(C)), so the events reduce to a window on the marked count."""
    events = []
    for c in csp.constraints:
        kc = len(c.vbl)
        lo = (UNIFORM_ETA - UNIFORM_TAU2) * kc
        hi = (UNIFORM_ETA + UNIFORM_TAU1) * kc

        def pred(marks, vbl=c.vbl, lo=lo, hi=hi):
            mc = sum(1 for v in vbl if marks[v])
            return mc < lo or mc > hi

        events.append((c.vbl, pred))
    return events


def construct_marking_uniform_binary(csp: AtomicCsp, seed: int = 0,
                                     check_regime: bool = True) -> Marking:
    """Marking for uniform binary domains with the fixed constants
    eta=0.595, tau1=0.23, tau2=0.245-3e-5."""
    meas = csp.measures
    if meas.q > 2 or meas.kappa != 1.0:
        raise RegimeError(
            "uniform binary marking construction needs uniform binary domains")
    if check_regime and (UNIFORM_GAMMA * meas.log_p
                         + math.log(max(meas.delta, 1)) > math.log(1e-7)):
        raise RegimeError(
            f"regime p^0.175*Delta <= 1e-7 fails: ln p={meas.log_p:.4f} "
            f"Delta={meas.delta}")
    events = _uniform_binary_events(csp)

    def sample_mark(i, stream):
        return stream.next_uniform() < UNIFORM_ETA

    for attempt in range(DEFAULT_RETRY_CAP):
        tape = RandomnessTape(derive_seed(seed, "marking-uniform", attempt))
        stream = tape.stream(0, LABEL_MARKING)
        marks = moser_tardos(csp.num_vars, sample_mark, events, stream)
        marking = Marking(tuple(marks))
        if check_theorem_conditions(csp, marking).passed:
            return marking
    raise ConstructionFailedError(
        "uniform binary marking construction failed after "
        f"{DEFAULT_RETRY_CAP} attempts")
