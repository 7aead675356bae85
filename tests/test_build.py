from __future__ import annotations

import decimal
import hashlib
import json
from fractions import Fraction

import pytest

from minorforge import (
    bipartite_random_contraction,
    build_dense_minor,
    build_dense_minor_bipartite,
    build_dense_minor_in_dense_graph,
    complete_graph,
    connect_within,
    graph_from_edge_list,
    hitting_set_check,
    induced_subgraph,
    is_eps_t_dense,
    random_bipartite,
    random_graph,
    require_valid,
    sample_hitting_set,
)
from minorforge.build import _stitch_outside
from minorforge.errors import (
    AttemptsExhaustedError,
    DisconnectedHostError,
    HypothesisViolatedError,
    PathTooLongError,
    UnknownVertexError,
)
from minorforge.graph import mask_of
from minorforge.model import MinorModel
from minorforge.params import below_log_inv, power_hypothesis, sqrt_log_inv, undominated_bound
from minorforge.rng import Rng, derive_seed

from conftest import brute_connected, petersen


OPEN_UNIT = "^eps must lie strictly between 0 and 1$"


def test_sqrt_log_inv_refuses_eps_outside_the_open_unit_interval():
    for eps in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(HypothesisViolatedError, match=OPEN_UNIT) as info:
            sqrt_log_inv(eps)
        assert info.value.evidence == eps


def _ln_10_near(digits: int = 80):
    """ln 10 and its square root as rationals good to ``digits`` places."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ln10 = decimal.Decimal(10).ln()
        return Fraction(ln10), Fraction(ln10.sqrt())


def test_below_log_inv_separates_what_doubles_cannot():
    ln10, _ = _ln_10_near()
    tiny = Fraction(1, 10**30)
    assert float(ln10 - tiny) == float(ln10 + tiny)
    assert below_log_inv(ln10 - tiny, Fraction(1, 10))
    assert not below_log_inv(ln10 + tiny, Fraction(1, 10))
    # ln 2 = 0.693..., ln(7/2) = 1.2527...
    assert below_log_inv(Fraction(0), Fraction(1, 2))
    assert not below_log_inv(Fraction(7, 10), Fraction(1, 2))
    assert below_log_inv(Fraction(5, 4), Fraction(2, 7))
    assert not below_log_inv(Fraction(63, 50), Fraction(2, 7))
    for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(HypothesisViolatedError, match=OPEN_UNIT):
            below_log_inv(Fraction(1), eps)


def test_density_thresholds_are_exact():
    """Scales within 1e-30 of each threshold, the same double on both sides:
    above it the build refuses the host, below it the build goes on."""
    eps, t, tiny = Fraction(1, 10), 3, Fraction(1, 10**30)
    _, root = _ln_10_near()
    # K_24 has average degree 23: the threshold is c = 23 / (3 sqrt(ln 10))
    exact = Fraction(23) / (t * root)
    assert float(exact - tiny) == float(exact + tiny)
    with pytest.raises(HypothesisViolatedError, match="average degree below"):
        build_dense_minor(complete_graph(24), eps, t, exact + tiny, Rng(1))
    require_valid(build_dense_minor(complete_graph(24), eps, t, exact - tiny, Rng(1)))
    # K_{30,30} has 900 edges against t n = 180: c = 720 / (3 sqrt(900 ln 10))
    g = random_bipartite(30, 30, Fraction(1), Rng(0))
    sides = tuple(range(30)), tuple(range(30, 60))
    exact = Fraction(720) / (t * 30 * root)
    with pytest.raises(HypothesisViolatedError, match="edge count below"):
        build_dense_minor_bipartite(g, *sides, eps, t, exact + tiny, Rng(1))
    require_valid(build_dense_minor_bipartite(g, *sides, eps, t, exact - tiny, Rng(1)))


def test_power_hypothesis_refuses_a_negative_base_or_nonpositive_eps():
    # the float branch (r * r > 4096) took log(eps) and raised a bare
    # ValueError; the exact branch answered True for base 0 and eps < 0
    for eps, r, base, bad, message in (
        (Fraction(1, 2), 2, Fraction(-1, 3), Fraction(-1, 3), "base must be nonnegative"),
        (Fraction(0), 65, Fraction(1, 2), Fraction(0), "eps must be positive"),
        (Fraction(-1, 4), 2, Fraction(0), Fraction(-1, 4), "eps must be positive"),
    ):
        with pytest.raises(HypothesisViolatedError, match=f"^{message}$") as info:
            power_hypothesis(eps, r, base)
        assert info.value.evidence == bad


def test_hitting_set_check_by_hand():
    g = complete_graph(6)
    # s = {0,1}: contained in the first set only; nothing is undominated
    covered, undominated, ok = hitting_set_check(
        g, {0, 1}, [{0, 1, 2}, {3, 4}], Fraction(1, 2), 0
    )
    assert covered == 1
    assert undominated == 0
    assert ok  # 1 <= (1/2)*2 and 0 <= 0
    _, _, strict = hitting_set_check(
        g, {0, 1}, [{0, 1, 2}, {3, 4}], Fraction(1, 4), 0
    )
    assert not strict  # 1 > (1/4)*2


def test_hitting_set_undominated_count():
    star = graph_from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    covered, undominated, _ = hitting_set_check(
        star, {1}, [], Fraction(1, 2), 5
    )
    assert covered == 0
    assert undominated == 3  # 2, 3, 4 have no neighbor at the leaf
    for bad in (-1, 5):
        with pytest.raises(UnknownVertexError):
            hitting_set_check(star, {1, bad}, [], Fraction(1, 2), 5)


def test_sample_hitting_set_on_near_complete_host():
    rng = Rng(derive_seed(50, 0))
    g = complete_graph(36)
    a_list = [{1, 2}, {5, 6}, {10}]  # sizes within the eps^(1/r)*n/12 bound
    result = sample_hitting_set(g, a_list, 2, Fraction(1, 2), 36, rng)
    assert 1 <= len(result.s) <= 2
    cap = undominated_bound(Fraction(1, 2), 2, 36)
    covered, undominated, ok = hitting_set_check(
        g, result.s, a_list, Fraction(1, 2), cap
    )
    assert ok
    assert (covered, undominated) == (result.covered_failures, result.undominated)
    replay = sample_hitting_set(
        g, a_list, 2, Fraction(1, 2), 36, Rng(derive_seed(50, 0))
    )
    assert replay.s == result.s and replay.attempts == result.attempts


def test_sample_hitting_set_validates():
    g = complete_graph(10)
    rng = Rng(0)
    with pytest.raises(HypothesisViolatedError):
        sample_hitting_set(g, [], 0, Fraction(1, 2), 10, rng)
    with pytest.raises(HypothesisViolatedError):
        sample_hitting_set(g, [], 2, Fraction(2), 10, rng)
    with pytest.raises(HypothesisViolatedError):
        sample_hitting_set(g, [], 2, Fraction(1, 2), 100, rng)  # scale > 6n
    with pytest.raises(HypothesisViolatedError):
        # one candidate set above the size bound
        sample_hitting_set(g, [set(range(10))], 2, Fraction(1, 2), 10, rng)
    with pytest.raises(HypothesisViolatedError, match="nonempty"):
        sample_hitting_set(graph_from_edge_list(0, []), [], 1, Fraction(1, 2), 0, rng)


def test_sample_hitting_set_exhaustion_warns_and_raises():
    # an empty graph leaves everything undominated, so no draw can pass
    g = graph_from_edge_list(8, [])
    with pytest.warns(UserWarning):
        with pytest.raises(AttemptsExhaustedError) as info:
            sample_hitting_set(g, [], 2, Fraction(1, 4), 8, Rng(3), max_attempts=5)
    assert info.value.attempts == 5
    assert info.value.hypothesis_ok is False


def test_connect_within():
    g = petersen()
    out = connect_within(g, {0, 2})
    assert set(out) >= {0, 2}
    assert brute_connected(g, out)
    split = graph_from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedHostError):
        connect_within(split, {0, 2})
    # the ends of a 16-vertex path need 15 edges, one over the cap of 14
    far = graph_from_edge_list(16, [(i, i + 1) for i in range(15)])
    with pytest.raises(PathTooLongError):
        connect_within(far, {0, 15})
    assert len(connect_within(far, {0, 14})) == 15


def test_build_dense_minor_fast_path_on_complete_host():
    model = build_dense_minor(
        complete_graph(24), Fraction(1, 4), 3, Fraction(1, 4), Rng(1)
    )
    pat = require_valid(model).pattern
    assert is_eps_t_dense(pat, Fraction(1, 4), 3)


def test_build_dense_minor_seeded_random_host():
    g = random_graph(120, Fraction(1, 2), Rng(derive_seed(51, 0)))
    model = build_dense_minor(g, Fraction(1, 10), 4, Fraction(6), Rng(derive_seed(51, 1)))
    pat = require_valid(model).pattern
    assert pat.n == 4
    assert is_eps_t_dense(pat, Fraction(1, 10), 4)
    again = build_dense_minor(
        g, Fraction(1, 10), 4, Fraction(6), Rng(derive_seed(51, 1))
    )
    assert again.fragments == model.fragments


def test_build_dense_minor_validates():
    g = complete_graph(20)
    with pytest.raises(HypothesisViolatedError):
        build_dense_minor(g, Fraction(1, 2), 3, Fraction(1), Rng(0))  # eps cap
    with pytest.raises(HypothesisViolatedError):
        build_dense_minor(g, Fraction(1, 4), 1, Fraction(1), Rng(0))
    sparse = graph_from_edge_list(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(HypothesisViolatedError):
        build_dense_minor(sparse, Fraction(1, 4), 3, Fraction(8), Rng(0))


def test_builders_refuse_fewer_than_one_attempt(monkeypatch):
    """Each builder succeeds with one attempt and refuses fewer at entry,
    before it samples: ``build_dense_minor`` on K_24 takes its fast path
    and would never reach ``sample_hitting_set``'s own check."""
    import minorforge.build as build

    dense = complete_graph(40)
    bip = random_bipartite(40, 40, Fraction(4, 5), Rng(derive_seed(52, 0)))
    eps = Fraction(1, 5)
    calls = (
        lambda k: build_dense_minor(
            complete_graph(24), Fraction(1, 4), 3, Fraction(1, 4), Rng(1), max_attempts=k
        ),
        lambda k: build_dense_minor_in_dense_graph(dense, eps, 3, Rng(7), max_attempts=k),
        lambda k: build_dense_minor_bipartite(
            bip, range(40), range(40, 80), eps, 3, Fraction(1, 8), Rng(derive_seed(52, 1)),
            max_attempts=k,
        ),
    )
    for call in calls:
        assert call(1).fragments

    def sampled(*args):
        raise AssertionError("sampled with fewer than one attempt")

    monkeypatch.setattr(build, "sample_hitting_set", sampled)
    for call in calls:
        for k in (0, -1):
            with pytest.raises(HypothesisViolatedError, match="^max_attempts must be at least 1$"):
                call(k)
    with pytest.raises(HypothesisViolatedError, match="^max_attempts must be at least 1$"):
        sample_hitting_set(dense, [], 2, Fraction(1, 2), 40, Rng(0), max_attempts=0)


def test_build_in_dense_graph():
    g = complete_graph(40)
    model = build_dense_minor_in_dense_graph(g, Fraction(1, 5), 3, Rng(7))
    assert is_eps_t_dense(require_valid(model).pattern, Fraction(1, 5), 3)
    with pytest.raises(HypothesisViolatedError):
        build_dense_minor_in_dense_graph(g, Fraction(1, 5), 4, Rng(7))  # n < 12t


def _outcome_digest(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def test_build_dense_minor_rounds_behind_a_failed_fast_split(monkeypatch):
    """The descent ends at K_d, so ``_split_fast`` never fails on a real run
    and the hitting-set rounds only follow its fallbacks.  Forced to fail,
    it hands 30 seeded hosts to the rounds: each success is valid and
    dense after t samples, and the fragments and refusals are pinned."""
    import minorforge.build as build

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_hitting_set(*args, **kwargs)

    monkeypatch.setattr(build, "_split_fast", lambda h, t, eps: None)
    monkeypatch.setattr(build, "sample_hitting_set", counted)
    eps, t = Fraction(1, 5), 3
    outcomes = []
    for s in range(30):
        g = random_graph(30, Fraction(1, 2), Rng(derive_seed(60, s)))
        calls.clear()
        try:
            model = build_dense_minor(g, eps, t, Fraction(1, 2), Rng(derive_seed(61, s)))
        except HypothesisViolatedError as e:
            outcomes.append(str(e))
            continue
        assert is_eps_t_dense(require_valid(model).pattern, eps, t)
        assert len(calls) == t
        outcomes.append([sorted(f) for f in model.fragments])
    assert sum(isinstance(o, list) for o in outcomes) == 6
    assert _outcome_digest(outcomes) == (
        "a50e1c9f8f5f1ae4589d96b49c9a5fb5b643e51f494c84ba0b0d377aa52dc604"
    )


def test_build_in_dense_graph_seeded_outcomes():
    eps, t = Fraction(1, 5), 3
    outcomes = []
    for s in range(24):
        g = random_graph(72 + 12 * (s % 3), Fraction(99, 100), Rng(derive_seed(62, s)))
        try:
            model = build_dense_minor_in_dense_graph(g, eps, t, Rng(derive_seed(63, s)))
        except HypothesisViolatedError as e:
            outcomes.append(str(e))
            continue
        assert is_eps_t_dense(require_valid(model).pattern, eps, t)
        outcomes.append([sorted(f) for f in model.fragments])
    assert sum(isinstance(o, list) for o in outcomes) == 20
    assert _outcome_digest(outcomes) == (
        "a4f0df8fd0c283e021df96f4f5e925e9eaded076fb57862a816d6ae1e6827154"
    )


def test_stitch_outside_gives_each_core_its_own_joiner():
    # cores {0, 1} and {2, 3} are each a non-adjacent pair, and their only
    # common neighbours are 4 and 5, both outside the pool {0, 1, 2, 3}
    g = graph_from_edge_list(6, [(c, j) for c in range(4) for j in (4, 5)])
    pool = mask_of(range(4))
    fragments = _stitch_outside(g, [mask_of((0, 1)), mask_of((2, 3))], pool)
    assert fragments == [[0, 1, 4], [2, 3, 5]]
    require_valid(MinorModel(g, fragments))
    with pytest.raises(HypothesisViolatedError, match="ran out of fresh common neighbors"):
        _stitch_outside(g, [mask_of((0, 1)), mask_of((2, 3))], pool | mask_of((5,)))


def test_bipartite_random_contraction():
    g = random_bipartite(6, 6, Fraction(1), Rng(0))
    side_a = tuple(range(6))
    side_b = tuple(range(6, 12))
    roots = {6, 7, 8}
    pattern, model = bipartite_random_contraction(g, side_a, side_b, 0, roots, Rng(4))
    assert pattern.n == 3
    require_valid(model)
    used = model.used_vertices()
    assert roots <= used
    assert 0 not in used
    with pytest.raises(HypothesisViolatedError):
        bipartite_random_contraction(g, side_a, side_b, 6, roots, Rng(4))


def test_build_dense_minor_bipartite():
    g = random_bipartite(40, 40, Fraction(4, 5), Rng(derive_seed(52, 0)))
    side_a = tuple(range(40))
    side_b = tuple(range(40, 80))
    model = build_dense_minor_bipartite(
        g, side_a, side_b, Fraction(1, 5), 3, Fraction(1, 8), Rng(derive_seed(52, 1))
    )
    pat = require_valid(model).pattern
    assert is_eps_t_dense(pat, Fraction(1, 5), 3)
    with pytest.raises(HypothesisViolatedError):
        build_dense_minor_bipartite(
            g, side_a, side_b, Fraction(1, 5), 3, Fraction(10**6), Rng(0)
        )


def test_bipartite_builder_without_an_anchor_tries_nothing(monkeypatch):
    """No vertex on the larger side has ``n_pick`` neighbors, so no
    contraction runs and the builder says why instead of reporting an
    attempt."""
    import minorforge.build as build

    contractions = []

    def counted(*args):
        contractions.append(args)
        return bipartite_random_contraction(*args)

    monkeypatch.setattr(build, "bipartite_random_contraction", counted)
    g = random_bipartite(30, 30, Fraction(1, 2), Rng(1))
    with pytest.raises(HypothesisViolatedError, match="neighbors") as info:
        build_dense_minor_bipartite(
            g, range(30), range(30, 60), Fraction(1, 5), 3, Fraction(1, 100), Rng(1)
        )
    assert contractions == []
    assert isinstance(info.value.evidence, int)
    assert all(g.degree(v) < info.value.evidence for v in range(g.n))
