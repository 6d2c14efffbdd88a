import collections
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

import lllsampler.core
import lllsampler.marking
from lllsampler import (ConstructionFailedError, Marking, RegimeError,
                        VariableSpec, check_theorem_conditions,
                        construct_marking_binary,
                        construct_marking_uniform_binary)
from lllsampler.marking import (UNIFORM_ETA, UNIFORM_TAU1, UNIFORM_TAU2,
                                _binary_events, _uniform_binary_events,
                                binary_gamma, check_necessary_bound,
                                compute_constants, kl_divergence,
                                moser_tardos)
from lllsampler.core import constraint_sums, per_entry
from lllsampler.kernels import LABEL_MARKING, LABEL_TENSOR, RandomnessTape
from lllsampler.tensorization import (_uniform_events, marked_path_log2,
                                      uniform_randomized_tensorization)

from conftest import (constraint_pairs, counted_measures, csp_of,
                      random_weighted_csp, uniform20, weighted8)


def constants_entries(csp):
    """How many marking constants ``csp.memo`` holds."""
    return sum(build is compute_constants for build, _ in csp.memo)


def binary_regime_instance(kappa, k=None):
    """A single high-arity constraint instance inside the binary
    construction's regime for the given weight ratio."""
    if kappa == 1.0:
        weights = (0.5, 0.5)
        low = 0.5
    else:
        w = 1.0 / (1.0 + kappa)
        weights = (w, 1.0 - w)
        low = w
    gamma, _, _ = binary_gamma(kappa, 1e-5)
    if k is None:
        k = math.ceil(math.log(0.01 * 1e-5 / kappa) / (gamma * math.log(low)))
    vars = [VariableSpec(2, weights) for _ in range(k)]
    return csp_of(vars, [(tuple(range(k)), (0,) * k)])


def test_marking_is_its_mask():
    m = Marking([0, 1, 1, 0, 2])
    assert m.marked == (False, True, True, False, True)
    assert m.indices() == (1, 2, 4)
    assert not m.mask.flags.writeable
    with pytest.raises(ValueError):
        m.mask[0] = True
    same = Marking.from_indices(5, [4, 1, 2, 2, 9])
    assert same == m and hash(same) == hash(m)
    assert Marking.empty(5) != m and Marking.empty(4) != Marking.empty(5)
    assert Marking.empty(3) == Marking(np.zeros(3, dtype=bool))
    # the memos keyed by marking hit for an equal marking
    csp, w = weighted8()
    consts = check_theorem_conditions(csp, w)
    assert constants_entries(csp) == 1
    check_theorem_conditions(csp, Marking(w.mask.copy()))
    assert constants_entries(csp) == 1 and consts.passed


def test_constants_hand_computed():
    csp, m = weighted8()
    consts = compute_constants(csp, m)
    # alpha = 0.2^3 over the three unmarked variables
    assert consts.log_alpha == pytest.approx(3 * math.log(0.2))
    beta = (1.0 - math.e * 0.2 ** 3) ** -1.0
    assert consts.log_beta == pytest.approx(math.log(beta))
    assert consts.log_rho == pytest.approx(5 * math.log(beta * 0.2))
    # binary domains: the lambda factor reduces to beta*w
    assert consts.log_lambda == pytest.approx(
        2 * math.log(8) + 5 * math.log(beta * 0.2))


def test_beta_undefined_when_e_alpha_exceeds_one():
    # empty marking on a 3-variable uniform clause: alpha = 1/8, e/8 < 1 ok;
    # on a 1-variable clause alpha = 1/2 and e/2 > 1
    csp = csp_of([VariableSpec.uniform(2)], [((0,), (0,))])
    consts = compute_constants(csp, Marking.empty(1))
    assert consts.log_beta is None
    report = check_theorem_conditions(csp, Marking.empty(1))
    assert not report.passed and report.rho_slack == math.inf


def test_conditions_pass_on_reference_instances():
    for csp, m in (weighted8(), uniform20()):
        assert check_theorem_conditions(csp, m).passed
        check_necessary_bound(csp.measures)


def test_necessary_bound_is_sound():
    # p_C <= alpha * rho for every constraint and marking, since beta >= 1:
    # the step from the conditions to p <= 1/(32 e^2 Delta^3).  The
    # inequality can hold with equality, so the bound keeps its slack.
    rng = random.Random(13)
    cases = passing = 0
    for _ in range(400):
        csp = random_weighted_csp(rng, max_domain=4)
        for frac in (0.2, 0.5, rng.random()):
            m = Marking([rng.random() < frac for _ in range(csp.num_vars)])
            consts = compute_constants(csp, m)
            if consts.log_beta is None:
                continue
            cases += 1
            assert (csp.measures.log_p
                    <= consts.log_alpha + consts.log_rho + 1e-9)
            if check_theorem_conditions(csp, m).passed:
                passing += 1
                check_necessary_bound(csp.measures)
    assert cases > 300 and passing > 20
    # the threshold itself: p <= 1/(32 e^2 Delta^3), with 1e-9 of slack
    for delta in (1, 13, 40):
        log_bound = -math.log(32.0 * math.e ** 2 * delta ** 3)
        meas = dataclasses.replace(csp.measures, delta=delta)
        check_necessary_bound(dataclasses.replace(meas, log_p=log_bound))
        with pytest.raises(RegimeError, match="no marking can pass"):
            check_necessary_bound(
                dataclasses.replace(meas, log_p=log_bound + 1e-8))


def log_bound(delta):
    """ln(1/(32 e^2 delta^3)), as the necessary bound writes it."""
    return -(2.0 + math.log(32.0) + 3.0 * math.log(delta))


def bound_edge_csp(rng, mixed, anchor):
    """An instance whose ln p sits within 1e-6 of the necessary bound at
    d or at Delta (``anchor``, "d" or "delta").

    Long constraints (arity 24-30, each entry on its variable's lightest
    value, so ln p_C <= 24 ln(1/2)) over shared variables, and one short
    constraint C*: one or two shared variables on their heaviest values
    and a variable of its own, whose weight puts ln p_C* where wanted.
    The private variable leaves d and Delta as the rest make them."""
    n = rng.randint(30, 250)
    specs = []
    for _ in range(n):
        q = rng.randint(2, 5) if mixed else 2
        raw = [rng.uniform(0.2, 1.0) for _ in range(q)]
        specs.append(VariableSpec(q, tuple(w / sum(raw) for w in raw)))
    cons = []
    for _ in range(rng.randint(1, 14)):
        vbl = tuple(rng.sample(range(n), rng.randint(24, 30)))
        cons.append((vbl, tuple(int(np.argmin(specs[v].weights))
                                for v in vbl)))
    shared = rng.sample(range(n), rng.randint(1, 2))
    fals = [int(np.argmax(specs[v].weights)) for v in shared]
    cons.insert(rng.randint(0, len(cons)),
                ((*shared, n), (*fals, 0)))
    structure = csp_of(specs + [VariableSpec(2, (0.5, 0.5))], cons)
    meas = structure.measures
    offset = rng.choice((-1e-6, -1e-8, -2e-9, 0.0, 5e-10, 2e-9, 1e-8, 1e-6,
                         rng.uniform(-1e-6, 1e-6)))
    target = log_bound(getattr(meas, anchor)) + offset
    w = math.exp(target - sum(math.log(specs[v].weights[q])
                              for v, q in zip(shared, fals)))
    return csp_of(specs + [VariableSpec(2, (w, 1.0 - w))], cons)


def test_necessary_bound_reads_d_first(monkeypatch):
    # the check raises exactly when ln p > ln(1/(32 e^2 Delta^3)) + 1e-9;
    # a refusal at d counts no Delta.  Every instance's largest arity
    # exceeds its Delta, so comparing at k in place of d refuses the cases
    # admitted at Delta
    rng = random.Random(30)
    calls = []
    counted = lllsampler.core.compute_measures

    def counting(csp):
        calls.append(csp)
        return counted(csp)

    monkeypatch.setattr(lllsampler.core, "compute_measures", counting)
    seen = collections.Counter()
    for trial in range(400):
        anchor = "d" if trial % 4 < 2 else "delta"
        csp = bound_edge_csp(rng, mixed=trial % 2 == 1, anchor=anchor)
        meas = counted_measures(csp)
        assert meas.k > meas.delta >= meas.d
        assert abs(meas.log_p - log_bound(getattr(meas, anchor))) <= 1.01e-6
        calls.clear()
        if meas.log_p <= log_bound(meas.delta) + 1e-9:
            check_necessary_bound(csp)
            assert calls == [csp]
            seen["admitted"] += 1
            continue
        with pytest.raises(RegimeError) as refused:
            check_necessary_bound(csp)
        if meas.log_p > log_bound(meas.d) + 1e-9:
            assert str(refused.value).endswith(f"with Delta >= {meas.d}")
            assert calls == []
            seen["at d"] += 1
        else:
            assert str(refused.value).endswith(f"with Delta={meas.delta}")
            assert calls == [csp]
            seen["at Delta"] += 1
    assert min(seen.values()) >= 60, seen


def test_conditions_constraint_free():
    csp = csp_of([VariableSpec.uniform(2)], [])
    assert check_theorem_conditions(csp, Marking.from_indices(1, [0])).passed


def test_kl_divergence():
    assert kl_divergence(0.5, 0.5) == 0.0
    # symmetric binary example with known closed form
    assert kl_divergence(1.0, 0.5) == pytest.approx(1.0)
    assert kl_divergence(0.25, 0.5) == pytest.approx(
        0.25 * math.log2(0.5) + 0.75 * math.log2(1.5))
    with pytest.raises(ValueError):
        kl_divergence(0.5, 1.0)


def test_binary_gamma_limits():
    gamma1, eta1, tau1 = binary_gamma(1.0, 0.0)
    assert round(gamma1, 4) == 0.1710
    gamma2, _, _ = binary_gamma(2.0, 0.0)
    assert round(gamma2, 4) == 0.1451
    # eta and tau satisfy the defining relation eta = (2 - tau + 3 zeta)/3
    assert eta1 == pytest.approx((2.0 - tau1) / 3.0)


def bits_csp(n):
    """n uniform bits, constraint i forbidding bit i = 0."""
    return csp_of([VariableSpec.uniform(2)] * n,
                  [((i,), (0,)) for i in range(n)])


def test_moser_tardos_resamples_to_valid():
    # toy: three bits, bad events "bit i == 0"
    tape = RandomnessTape(42)
    stream = tape.stream(0, LABEL_MARKING)
    csp = bits_csp(3)
    vals = moser_tardos(
        csp, lambda vs: (stream.uniforms(len(vs)) < 0.5).astype(int),
        lambda vals: vals[csp.flat.cons_vars] == 0)
    assert vals.tolist() == [1, 1, 1]


def test_moser_tardos_cap():
    csp = bits_csp(1)
    with pytest.raises(ConstructionFailedError):
        moser_tardos(csp, lambda vs: np.zeros(len(vs), dtype=int),
                     lambda vals: np.ones(1, dtype=bool), iteration_factor=10)


def hex_or_none(x):
    return None if x is None else float(x).hex()


def loop_constants(csp, m):
    """Reference: ``compute_constants`` as loops over each constraint's
    entries, each sum an explicit left-to-right accumulation."""
    la_per = []
    for vbl, fals in constraint_pairs(csp):
        acc = 0.0
        for v, q in zip(vbl, fals):
            if not m.marked[v]:
                acc += csp.vars[v].log_weights[q]
        la_per.append(acc)
    log_alpha = max(la_per, default=-math.inf)
    if 1.0 + log_alpha >= 0.0:
        return log_alpha, None, None, None
    log_beta = -csp.measures.d * math.log1p(-math.exp(1.0 + log_alpha))
    beta = math.exp(log_beta)
    lr_per = []
    ll_per = []
    for vbl, fals in constraint_pairs(csp):
        lr = 0.0
        ll = 2.0 * math.log(len(vbl))
        for v, q in zip(vbl, fals):
            if not m.marked[v]:
                continue
            w = csp.vars[v].weights[q]
            lr += log_beta + math.log(w)
            ll += math.log(beta * w + (beta - 1.0)
                           * (csp.vars[v].domain_size - 2))
        lr_per.append(lr)
        ll_per.append(ll)
    return (log_alpha, log_beta, max(lr_per, default=-math.inf),
            max(ll_per, default=-math.inf))


def test_constants_match_the_entry_loops_bitwise():
    rng = random.Random(7)
    with_beta = 0
    for _ in range(150):
        csp = random_weighted_csp(rng)
        for frac in (0.0, 0.3 * rng.random(), rng.random()):
            m = Marking([rng.random() < frac for _ in range(csp.num_vars)])
            got = compute_constants(csp, m)
            got = (got.log_alpha, got.log_beta, got.log_rho, got.log_lambda)
            want = loop_constants(csp, m)
            assert list(map(hex_or_none, got)) == list(map(hex_or_none, want))
            with_beta += want[1] is not None
    assert with_beta > 50


def where_constants(csp, m):
    """Reference: ``compute_constants`` with each entry's term selected by
    ``np.where``."""
    flat = csp.flat
    marked = m.mask[flat.cons_vars]
    la = constraint_sums(flat, np.where(marked, 0.0, flat.log_w))
    log_alpha = float(la.max(initial=-math.inf))
    if 1.0 + log_alpha >= 0.0:
        return log_alpha, None, None, None
    log_beta = -csp.measures.d * math.log1p(-math.exp(1.0 + log_alpha))
    beta = math.exp(log_beta)
    lr = constraint_sums(flat, np.where(marked, log_beta + flat.log_w, 0.0))
    term = np.zeros((len(flat.specs), flat.cum_table.shape[1] + 1))
    for g, s in enumerate(flat.specs):
        term[g, :s.domain_size] = [
            math.log(beta * w + (beta - 1.0) * (s.domain_size - 2))
            for w in s.weights]
    ll = constraint_sums(
        flat, np.where(marked, per_entry(term, flat.entry_spec,
                                         flat.cons_fals), 0.0),
        first=[2.0 * math.log(k) for k in flat.arity.tolist()])
    return (log_alpha, log_beta, float(lr.max(initial=-math.inf)),
            float(ll.max(initial=-math.inf)))


def test_constants_match_the_where_selects_bitwise():
    # a masked-out negative term is -0.0 under the masks and +0.0 under
    # np.where; a fully marked constraint's alpha sum, and the beta and
    # lambda sums of a constraint with no marked entry, must still agree
    # bit for bit
    rng = random.Random(31)
    cases = [(csp_of([VariableSpec(2, (0.3, 0.7))] * 3,
                     [((0, 1), (0, 1)), ((1, 2), (1, 1))]), mask)
             for mask in ([True, True, False], [False, False, True])]
    for _ in range(150):
        csp = random_weighted_csp(rng)
        for frac in (0.0, 0.3 * rng.random(), rng.random(), 1.0):
            cases.append((csp, [rng.random() < frac
                                for _ in range(csp.num_vars)]))
    zeros = 0
    for csp, mask in cases:
        got = compute_constants(csp, Marking(mask))
        got = (got.log_alpha, got.log_beta, got.log_rho, got.log_lambda)
        want = where_constants(csp, Marking(mask))
        assert list(map(hex_or_none, got)) == list(map(hex_or_none, want))
        zeros += 0.0 in want
    assert zeros > 20


def loop_moser_tardos(num_vars, sample_var, bad_events, stream):
    """Reference engine over a list of (variables, predicate) events,
    scanned in order; returns the values and the resampling count."""
    values = [sample_var(i, stream) for i in range(num_vars)]
    if not bad_events:
        return values, 0
    for it in range(10**4 * len(bad_events)):
        violated = None
        for ei, (_, pred) in enumerate(bad_events):
            if pred(values):
                violated = ei
                break
        if violated is None:
            return values, it
        for v in sorted(bad_events[violated][0]):
            values[v] = sample_var(v, stream)
    raise ConstructionFailedError("no convergence")


def loop_binary_events(csp, eta, tau):
    """Reference: the binary deviation events as per-constraint closures."""
    events = []
    for vbl, fals in constraint_pairs(csp):
        terms = [(v, csp.vars[v].log_weights[q])
                 for v, q in zip(vbl, fals)]
        log_pc = 0.0
        for _, t in terms:
            log_pc += t

        def pred(marks, terms=terms, log_pc=log_pc):
            s = 0.0
            for v, t in terms:
                if marks[v]:
                    s += t
            return abs(s - eta * log_pc) > tau * (-log_pc)

        events.append((vbl, pred))
    return events


def loop_uniform_binary_events(csp):
    """Reference: the uniform binary count windows as closures."""
    events = []
    for vbl, fals in constraint_pairs(csp):
        kc = len(vbl)
        lo = (UNIFORM_ETA - UNIFORM_TAU2) * kc
        hi = (UNIFORM_ETA + UNIFORM_TAU1) * kc

        def pred(marks, vbl=vbl, lo=lo, hi=hi):
            mc = sum(1 for v in vbl if marks[v])
            return mc < lo or mc > hi

        events.append((vbl, pred))
    return events


def loop_uniform_tensor_events(csp):
    """Reference: the uniform construction's windows as closures over the
    (tree, marks) draws, each constraint's marked path masses added with
    ``math.fsum``."""
    events = []
    for vbl, fals in constraint_pairs(csp):
        l_c = math.fsum(math.log2(csp.vars[v].domain_size) for v in vbl)
        lo = -(UNIFORM_ETA + UNIFORM_TAU1) * l_c - 1e-9
        hi = -(UNIFORM_ETA - UNIFORM_TAU2) * l_c + 1e-9

        def pred(draws, entries=tuple(zip(vbl, fals)), lo=lo, hi=hi):
            s = math.fsum(marked_path_log2(draws[v][0], draws[v][1], q)
                          for v, q in entries)
            return not lo <= s <= hi

        events.append((vbl, pred))
    return events


def mixed_uniform_csp(seed, k=3, n=36, m=12):
    """m random arity-k constraints over n uniform variables of mixed
    domain sizes, random falsifying values.  A two-value variable's marked
    mass is 0 or -1, outside its own window, so domain 2 is drawn most
    often to make the events fire."""
    rng = random.Random(seed)
    vars = [VariableSpec.uniform(rng.choice((2, 2, 2, 2, 3, 5, 6, 7, 8, 11,
                                             16)))
            for _ in range(n)]
    cons = []
    for _ in range(m):
        vbl = tuple(sorted(rng.sample(range(n), k)))
        cons.append((vbl, tuple(rng.randrange(vars[v].domain_size)
                                for v in vbl)))
    return csp_of(vars, cons)


def blocks_csp(seed, k, blocks, extra, spec):
    """Disjoint blocks of k variables, one constraint each, plus ``extra``
    random arity-k constraints across them."""
    rng = random.Random(seed)
    n = k * blocks
    perm = list(range(n))
    rng.shuffle(perm)
    vbls = [perm[i:i + k] for i in range(0, n, k)]
    vbls += [rng.sample(range(n), k) for _ in range(extra)]
    return csp_of([spec] * n, [
        (tuple(sorted(vbl)), tuple(rng.randrange(2) for _ in vbl))
        for vbl in vbls])


@pytest.mark.parametrize("kind", ["binary", "uniform", "uniform-tensor"])
def test_array_events_match_the_closures(kind):
    # the array engine's verdicts equal the closures' at every resampling
    # step, and both engines end on the same values
    fired = 0
    verdicts = {True: 0, False: 0}
    for seed in range(12):
        tape = RandomnessTape(seed)
        if kind == "uniform-tensor":
            csp = mixed_uniform_csp(seed)
            violated = _uniform_events(csp)
            events = loop_uniform_tensor_events(csp)
            draws = [None] * csp.num_vars
            streams = [[tape.stream(v, LABEL_TENSOR)
                        for v in range(csp.num_vars)] for _ in range(2)]

            def draw(v, side):
                return uniform_randomized_tensorization(
                    csp.vars[v].domain_size, streams[side][v])

            def sample(vs):
                x = np.zeros((len(vs), 16))
                for i, v in enumerate(vs.tolist()):
                    draws[v] = draw(v, 1)
                    x[i, :len(draws[v][2])] = draws[v][2]
                return x

            def key(draws):
                return [(t.children, t.leaf_value, m) for t, m, _ in draws]

            want, iterations = loop_moser_tardos(
                csp.num_vars, lambda v, _: draw(v, 0), events, None)
            want = key(want)
            state = lambda values: draws
            ended = lambda values: key(draws)
        else:
            if kind == "binary":
                csp = blocks_csp(seed, 12, 12, 3, VariableSpec(2, (0.4, 0.6)))
                _, eta, tau = binary_gamma(csp.measures.kappa, 1e-5)
                violated = _binary_events(csp, eta, tau)
                events = loop_binary_events(csp, eta, tau)
            else:
                csp = blocks_csp(seed, 12, 12, 3, VariableSpec.uniform(2))
                eta = UNIFORM_ETA
                violated = _uniform_binary_events(csp)
                events = loop_uniform_binary_events(csp)
            want, iterations = loop_moser_tardos(
                csp.num_vars, lambda i, s: s.next_uniform() < eta, events,
                tape.stream(0, LABEL_MARKING))
            stream = tape.stream(0, LABEL_MARKING)
            sample = lambda vs: stream.uniforms(len(vs)) < eta
            state = lambda values: values
            ended = lambda values: values.tolist()

        def checked(values):
            flags = violated(values).tolist()
            assert flags == [pred(state(values)) for _, pred in events]
            for f in flags:
                verdicts[f] += 1
            return np.array(flags)

        assert ended(moser_tardos(csp, sample, checked)) == want
        fired += iterations > 0
    assert fired >= 6
    assert min(verdicts.values()) >= 20, verdicts


def test_binary_event_sums_match_the_where_form_bitwise(monkeypatch):
    # the binary events select each entry's term as log_w * mark, which is
    # -0.0 where the mark is 0; every sum starts from +0.0, so the sums are
    # np.where's (+0.0 where unmarked) bit for bit, all-unmarked included
    seen = []

    def recording(flat, x, first=0.0):
        seen.append(constraint_sums(flat, x, first))
        return seen[-1]

    monkeypatch.setattr(lllsampler.marking, "constraint_sums", recording)
    rng = random.Random(32)
    for _ in range(200):
        csp = random_weighted_csp(rng)
        flat = csp.flat
        violated = _binary_events(csp, 0.5, 0.1)
        for p in (0.0, 0.5, 1.0):
            marks = np.array([rng.random() < p
                              for _ in range(csp.num_vars)])
            seen.clear()
            violated(marks)
            want = constraint_sums(flat, np.where(marks[flat.cons_vars],
                                                  flat.log_w, 0.0))
            assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()


def test_binary_construction_regime_error():
    # desk-scale 3-CNF: ln p = -2.08 fails the necessary bound
    # ln(1/(32 e^2)) = -5.47, and indeed none of its markings passes
    csp = csp_of([VariableSpec.uniform(2) for _ in range(3)],
                 [((0, 1, 2), (0, 0, 0))])
    with pytest.raises(RegimeError, match="no marking can pass"):
        construct_marking_binary(csp, seed=0)
    for m in map(Marking, itertools.product((0, 1), repeat=3)):
        assert not check_theorem_conditions(csp, m).passed


def test_binary_construction_in_regime():
    csp = binary_regime_instance(kappa=1.0)
    m = construct_marking_binary(csp, seed=3)
    assert check_theorem_conditions(csp, m).passed
    check_necessary_bound(csp.measures)
    assert 0 < sum(m.marked) < csp.num_vars


def test_uniform_binary_construction():
    k = 150
    csp = csp_of([VariableSpec.uniform(2) for _ in range(k)],
                 [(tuple(range(k)), (0,) * k)])
    m = construct_marking_uniform_binary(csp, seed=4)
    assert check_theorem_conditions(csp, m).passed
    check_necessary_bound(csp.measures)
    count = sum(m.marked)
    assert (UNIFORM_ETA - UNIFORM_TAU2) * k <= count
    assert count <= (UNIFORM_ETA + UNIFORM_TAU1) * k


def test_uniform_binary_rejects_weighted():
    csp = csp_of([VariableSpec(2, (0.2, 0.8))], [])
    with pytest.raises(RegimeError):
        construct_marking_uniform_binary(csp, seed=0)


def test_construction_deterministic():
    csp = binary_regime_instance(kappa=1.0)
    a = construct_marking_binary(csp, seed=9)
    b = construct_marking_binary(csp, seed=9)
    assert a == b
