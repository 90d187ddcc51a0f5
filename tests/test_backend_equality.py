"""Backend registry semantics and numpy-vs-python kernel equality.

The tensor backend's contract is not "close enough": it must produce
the *same selections and probe orders* as the row-wise oracle, with
certainty deltas within 1e-9. The property sweep here drives both
backends through randomized belief states — ragged supports, one-atom
(impulse) RDs, every k from 1 to n, in-support and out-of-support
collapses — and asserts marginals, override batches, collapse results
and best sets agree: bitwise for k > 1, except the absolute metric's
set values, which the numpy backend scores in its sweep table and must
match within 1e-12. A second sweep over 8–24 databases holds the numpy
backend's batched answer-set search to the oracle's per-call search.
The usefulness sweep must add each database's terms in the
oracle loop's order (for the absolute metric at k > 1 too, against the
per-atom loop), the numpy k > 1 override fold must equal the oracle's
bit for bit, and so must the numpy DP chain, from the default start or
a resumed chain's entry. RD construction is held to the stricter
bitwise standard: the batched ``derive_packed`` must reproduce
``derive_rd`` exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import knobs
from repro.core.backend import (
    ArrayBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    default_backend_name,
    get_backend,
)
from repro.core.errors import DEFAULT_ESTIMATE_FLOOR
from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.relevancy import derive_packed, derive_rd
from repro.core.topk import CorrectnessMetric, TopKComputer, _widest_pool
from repro.exceptions import ConfigurationError
from repro.hiddenweb.database import RelevancyDefinition
from repro.stats.distribution import DiscreteDistribution as D


class TestRegistry:
    def test_builtin_backends_present(self):
        assert available_backends() == ("numpy", "python")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(knobs.BACKEND, raising=False)
        assert default_backend_name() == "numpy"
        assert isinstance(get_backend(), NumpyBackend)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(knobs.BACKEND, "python")
        assert default_backend_name() == "python"
        assert isinstance(get_backend(), PythonBackend)

    def test_env_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(knobs.BACKEND, "cuda-imaginary")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            default_backend_name()

    def test_get_backend_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("no-such-backend")

    def test_instance_passthrough_and_caching(self):
        instance = get_backend("python")
        assert get_backend(instance) is instance
        assert get_backend("python") is instance

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            ArrayBackend()  # type: ignore[abstract]


# -- the equality sweep ------------------------------------------------------


def _random_rds(rng: np.random.Generator, n: int):
    """Ragged random RDs; roughly one in five databases is an impulse."""
    rds = []
    for _ in range(n):
        size = 1 if rng.random() < 0.2 else int(rng.integers(2, 6))
        values = np.sort(
            rng.choice(np.arange(0, 300, dtype=np.float64), size, replace=False)
        )
        weights = rng.random(size) + 0.05
        rds.append(D.from_pairs(zip(values.tolist(), weights.tolist())))
    return rds


def _computers(rds, k):
    oracle = TopKComputer(rds, k, backend="python")
    tensor = TopKComputer(rds, k, backend="numpy")
    return oracle, tensor


def _assert_same_belief(oracle, tensor, metric, trial, bitwise=False):
    m_oracle = oracle.marginals()
    m_tensor = tensor.marginals()
    if bitwise:
        assert m_oracle.tobytes() == m_tensor.tobytes(), trial
    assert np.max(np.abs(m_oracle - m_tensor)) <= 1e-9, trial
    set_oracle, score_oracle = oracle.best_set(metric)
    set_tensor, score_tensor = tensor.best_set(metric)
    assert set_oracle == set_tensor, trial
    assert abs(score_oracle - score_tensor) <= 1e-9, trial


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_backends_agree_on_random_belief_states(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n + 1))
    metric = (
        CorrectnessMetric.ABSOLUTE
        if rng.random() < 0.5
        else CorrectnessMetric.PARTIAL
    )
    rds = _random_rds(rng, n)
    oracle, tensor = _computers(rds, k)
    # For k > 1 every kernel the tensor backend runs here adds in the
    # oracle's order (the leave-one-out combine is the oracle's own
    # loop, the override fold its closed form over 0/1 rows), so
    # marginals and override batches are bitwise equal. The
    # absolute metric's set values come from the numpy sweep table,
    # which sums in its own order.
    bitwise = k > 1
    _assert_same_belief(oracle, tensor, metric, seed, bitwise)

    # Override batch: every hypothetical outcome of one database, i.e.
    # exactly what a usefulness sweep evaluates.
    database = int(rng.integers(0, n))
    start = sum(rd.support_size for rd in rds[:database])
    for atom in range(start, start + rds[database].support_size):
        override = (database, atom)
        set_o, score_o = oracle.best_set(metric, override=override)
        set_t, score_t = tensor.best_set(metric, override=override)
        assert set_o == set_t, (seed, override)
        if bitwise and metric is CorrectnessMetric.PARTIAL:
            assert score_o == score_t, (seed, override)
        elif bitwise:
            assert abs(score_o - score_t) <= 1e-12, (seed, override)
        assert abs(score_o - score_t) <= 1e-9, (seed, override)

    # Collapse on an observation, in-support or not, then re-compare the
    # evolved computers (including a second collapse on the new state).
    if rng.random() < 0.5:
        observed = float(rng.choice(rds[database].values))
    else:
        observed = float(rng.random() * 400.0)
    oracle2 = oracle.collapse(database, observed)
    tensor2 = tensor.collapse(database, observed)
    _assert_same_belief(oracle2, tensor2, metric, seed, bitwise)
    database2 = int(rng.integers(0, n))
    observed2 = float(rng.random() * 400.0)
    _assert_same_belief(
        oracle2.collapse(database2, observed2),
        tensor2.collapse(database2, observed2),
        metric,
        seed,
        bitwise,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_backends_agree_on_all_impulses(k):
    rds = [D.impulse(float(v)) for v in (5.0, 1.0, 9.0)]
    oracle, tensor = _computers(rds, k)
    for metric in CorrectnessMetric:
        _assert_same_belief(oracle, tensor, metric, ("impulse", k, metric))


def test_backends_agree_after_out_of_support_collapse_chain():
    rng = np.random.default_rng(2004)
    rds = _random_rds(rng, 5)
    oracle, tensor = _computers(rds, 2)
    # Walk a probe chain where every observation falls outside the
    # observed database's support (midpoint rank insertion each time).
    for database, observed in ((0, 311.5), (3, 0.25), (1, 150.75)):
        oracle = oracle.collapse(database, observed)
        tensor = tensor.collapse(database, observed)
        for metric in CorrectnessMetric:
            _assert_same_belief(oracle, tensor, metric, (database, observed))


def _assert_searches_agree(oracle, tensor, databases, trial):
    """Every atom override of *databases*: same set, values within 1e-12.

    The tensor side answers from the lane batch (one array pass at its
    first miss), the oracle from the per-call search.
    """
    for database in databases:
        for atom, _value, _prob in tensor.atoms_of(database):
            override = (database, atom)
            set_o, score_o = oracle.best_set(
                CorrectnessMetric.ABSOLUTE, override=override
            )
            set_t, score_t = tensor.best_set(
                CorrectnessMetric.ABSOLUTE, override=override
            )
            assert set_o == set_t, (trial, override)
            assert abs(score_o - score_t) <= 1e-12, (trial, override)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_backends_agree_on_answer_search(seed):
    # Over 8–24 databases pools reach many sizes: the numpy backend
    # scores every lane in one batch, the oracle runs each call alone.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 25))
    k = int(rng.integers(2, 5))
    rds = _random_rds(rng, n)
    oracle, tensor = _computers(rds, k)
    uncertain = [i for i, rd in enumerate(rds) if not rd.is_impulse]
    if len(uncertain) < 4:
        return
    picked = sorted(
        int(i) for i in rng.choice(uncertain, size=4, replace=False)
    )
    _assert_searches_agree(oracle, tensor, picked, (seed, "prior"))
    # One in-support and one out-of-support observation, each followed
    # by the same override checks on the collapsed computers.
    in_support = float(rng.choice(rds[picked[0]].values))
    oracle = oracle.collapse(picked[0], in_support)
    tensor = tensor.collapse(picked[0], in_support)
    _assert_searches_agree(oracle, tensor, picked[1:], (seed, "in-support"))
    outside = float(rds[picked[1]].values.max()) + 0.5
    oracle = oracle.collapse(picked[1], outside)
    tensor = tensor.collapse(picked[1], outside)
    _assert_searches_agree(oracle, tensor, picked[2:], (seed, "out-of-support"))
    _assert_same_belief(oracle, tensor, CorrectnessMetric.ABSOLUTE, seed)


def test_widest_pool_fits_the_subset_limit():
    widest = [_widest_pool(k, TopKComputer._SUBSET_LIMIT) for k in (2, 3, 5, 10)]
    assert widest == [91, 30, 15, 15]


@pytest.mark.parametrize("k", [8, 10])
def test_answer_search_is_bounded_at_wide_k(monkeypatch, k):
    # Twenty uncertain databases with marginals near one half: lane
    # pools outgrow the subset limit and are cut to the widest pool
    # that fits it, one group alone overflows the element budget and is
    # scored a slice of its subsets at a time, and every kernel call's
    # traced peak stays within the budget. The oracle runs the same
    # rule one set at a time.
    rng = np.random.default_rng(k)
    rds = [
        D.from_pairs(
            zip(
                np.sort(rng.choice(12, 3, replace=False)).astype(float).tolist(),
                (rng.random(3) + 0.2).tolist(),
            )
        )
        for _ in range(20)
    ]
    calls = []
    original = TopKComputer._sweep_table

    def spy(self, xs, pools, lane_group, lane_t0, chunk):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        values = original(self, xs, pools, lane_group, lane_t0, chunk)
        peak = tracemalloc.get_traced_memory()[1] - before
        calls.append((pools.shape[1], chunk, peak))
        return values

    monkeypatch.setattr(TopKComputer, "_sweep_table", spy)
    oracle, tensor = _computers(rds, k)
    widest = _widest_pool(k, TopKComputer._SUBSET_LIMIT)
    overrides = [
        (database, atom)
        for database in (0, 11)
        for atom, _value, _prob in tensor.atoms_of(database)
    ]
    tracemalloc.start()
    try:
        answers = [
            tensor.best_set(CorrectnessMetric.ABSOLUTE, override=override)
            for override in overrides
        ]
    finally:
        tracemalloc.stop()
    assert any(
        size == widest and chunk < comb(widest, k) for size, chunk, _ in calls
    )
    budget = 8 * TopKComputer._SWEEP_BATCH_LIMIT
    assert max(peak for _size, _chunk, peak in calls) <= budget
    for override, (best, value) in zip(overrides, answers):
        best_o, value_o = oracle.best_set(
            CorrectnessMetric.ABSOLUTE, override=override
        )
        assert best_o == best, override
        assert abs(value_o - value) <= 1e-12, override


def test_usefulness_sweep_matches_across_backends():
    policy = GreedyUsefulnessPolicy()
    # The absolute metric at k = 3 reads the numpy sweep table, whose
    # values may differ by 1e-12; every other cell is the oracle's loop,
    # float for float.
    for k, n, metric in (
        (1, 6, CorrectnessMetric.ABSOLUTE),
        (1, 6, CorrectnessMetric.PARTIAL),
        (3, 16, CorrectnessMetric.PARTIAL),
        (3, 16, CorrectnessMetric.ABSOLUTE),
    ):
        rng = np.random.default_rng(7)
        rds = _random_rds(rng, n)
        oracle, tensor = _computers(rds, k)
        for database in range(len(rds)):
            u_oracle = policy.usefulness(oracle, database, metric)
            u_tensor = policy.usefulness(tensor, database, metric)
            trial = (k, metric, database)
            if metric is CorrectnessMetric.ABSOLUTE and k > 1:
                assert u_oracle == pytest.approx(u_tensor, abs=1e-9), trial
            else:
                assert u_oracle == u_tensor, trial


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_usefulness_sweep_adds_in_oracle_order(seed):
    # The sweep sums each database's atom terms; the oracle's loop adds
    # them left to right from 0.0. Spans of 3+ atoms tell the orders
    # apart (a segmented reduceat adds a span's tail first).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rds = _random_rds(rng, n)
    policy = GreedyUsefulnessPolicy()
    for k, metric in (
        (1, CorrectnessMetric.ABSOLUTE),
        (1, CorrectnessMetric.PARTIAL),
        (2, CorrectnessMetric.PARTIAL),
        (3, CorrectnessMetric.PARTIAL),
    ):
        if k >= n:
            continue
        oracle, tensor = _computers(rds, k)
        if rng.random() < 0.5:
            database = int(rng.integers(n))
            observed = float(rng.choice(rds[database].values))
            oracle = oracle.collapse(database, observed)
            tensor = tensor.collapse(database, observed)
        for database in range(n):
            assert policy.usefulness(
                oracle, database, metric
            ) == policy.usefulness(tensor, database, metric), (
                seed, k, metric, database,
            )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_absolute_sweep_matches_the_per_atom_loop(seed):
    # At 1 < k < n the numpy sweep scores each atom by its lane in the
    # batch. An open database's usefulness must equal the policy's loop
    # over conditional_best_scores float for float; a settled one (its
    # one atom scored by the unconditioned best value) within 1e-12.
    # Checked on the prior and after an in-support and an
    # out-of-support collapse; the twin computer hides its sweep, so
    # the policy takes the per-atom loop there.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k + 1, 11))
    rds = _random_rds(rng, n)
    metric = CorrectnessMetric.ABSOLUTE
    policy = GreedyUsefulnessPolicy()
    swept = TopKComputer(rds, k, backend="numpy")
    looped = TopKComputer(rds, k, backend="numpy")
    uncertain = [i for i, rd in enumerate(rds) if not rd.is_impulse]
    observations = [(None, None)]
    if uncertain:
        first, last = uncertain[0], uncertain[-1]
        observations.append((first, float(rng.choice(rds[first].values))))
        observations.append((last, float(rds[last].values.max()) + 0.5))
    for database, value in observations:
        if database is not None:
            swept = swept.collapse(database, value)
            looped = looped.collapse(database, value)
        sweep = swept.usefulness_sweep(metric, policy._NEGLIGIBLE)
        looped.usefulness_sweep = lambda metric, negligible=0.0: None
        for row in range(n):
            loop = policy.usefulness(looped, row, metric)
            trial = (seed, k, database, row)
            if len(swept.atoms_of(row)) == 1:
                assert abs(sweep[row] - loop) <= 1e-12, trial
            else:
                assert sweep[row] == loop, trial


@pytest.mark.parametrize("k", range(2, 11))
def test_override_fold_is_bitwise_the_oracle(k):
    # Every override row is exactly 0.0 or 1.0, so the numpy backend
    # sums each leave-one-out table, or the table shifted up one count,
    # and picks one per entry. That must equal the oracle's fold bit for
    # bit, signs of zero included, on tables holding 0.0, -0.0 and tiny
    # negatives, in both shapes topk calls it with: the stacked batch
    # (row t folds into the table of atom t's database) and one
    # database's (s, m) override rows against its own table.
    tensor, oracle = get_backend("numpy"), get_backend("python")
    for seed in range(5):
        rng = np.random.default_rng([k, seed])
        n, m, s = 6, 40, 7
        loo = rng.random((n, m, k))
        draw = rng.random(loo.shape)
        loo[draw < 0.2] = 0.0
        loo[(draw >= 0.2) & (draw < 0.4)] = -0.0
        tiny = (draw >= 0.4) & (draw < 0.5)
        loo[tiny] = -rng.choice([5e-324, 1e-310, 1e-300], tiny.sum())
        loo[rng.random((n, m)) < 0.1] = -0.0
        rows = np.sort(rng.integers(0, n, m))
        fold = (rng.random((m, m)) < 0.5).astype(np.float64)
        stacked = tensor.override_membership(loo, fold, k, rows=rows)
        expected = oracle.override_membership(loo[rows], fold, k)
        assert stacked.tobytes() == expected.tobytes(), (k, seed)
        assert (
            oracle.override_membership(loo, fold, k, rows=rows).tobytes()
            == expected.tobytes()
        ), (k, seed)
        table = loo[int(rng.integers(n))][None, :, :]
        g_rows = (rng.random((s, m)) < 0.5).astype(np.float64)
        assert (
            tensor.override_membership(table, g_rows, k).tobytes()
            == oracle.override_membership(table, g_rows, k).tobytes()
        ), (k, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_dp_chain_matches_oracle_and_resumes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 30))
    k = int(rng.integers(1, 6))
    greater = rng.random((n, m))
    greater[rng.random((n, m)) < 0.3] = 0.0
    greater[rng.random((n, m)) < 0.1] = 1.0
    start = rng.random((m, k))
    d = int(rng.integers(n))
    tensor, oracle = get_backend("numpy"), get_backend("python")
    for reverse in (False, True):
        for init in (None, start):
            chain = tensor.dp_chain(greater, k, reverse, init=init)
            expected = oracle.dp_chain(greater, k, reverse, init=init)
            assert chain.tobytes() == expected.tobytes(), (seed, reverse)
        # Resuming from an entry of the full chain reproduces its rest.
        full = oracle.dp_chain(greater, k, reverse)
        for backend in (tensor, oracle):
            if reverse:
                rest = backend.dp_chain(
                    greater[: d + 1], k, True, init=full[d + 1]
                )
                assert rest.tobytes() == full[: d + 2].tobytes(), seed
            else:
                rest = backend.dp_chain(greater[d:], k, init=full[d])
                assert rest.tobytes() == full[d:].tobytes(), seed


class _FixedED:
    """An ED stand-in whose error distribution is given directly."""

    def __init__(self, distribution: D) -> None:
        self._distribution = distribution

    def to_distribution(self) -> D:
        return self._distribution


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_derive_packed_is_bitwise_derive_rd(seed):
    # Each ED carries 8+ errors in [-1, -0.9] (document frequency rounds
    # them all to 0) and 8+ in [0, 2] (similarity clamps them all to 1),
    # so every RD merges runs of 8+ atoms — where a pairwise-summing
    # merge reorders the additions that from_pairs makes one by one.
    rng = np.random.default_rng(seed)
    estimates, errors = [], []
    for _ in range(int(rng.integers(1, 5))):
        samples = np.concatenate(
            (
                rng.uniform(-1.0, -0.9, int(rng.integers(8, 17))),
                rng.uniform(0.0, 2.0, int(rng.integers(8, 17))),
                rng.uniform(-1.0, 2.0, int(rng.integers(0, 11))),
            )
        )
        weights = rng.random(len(samples)) + 1e-3
        errors.append(D.from_pairs(zip(samples.tolist(), weights.tolist())))
        estimates.append(float(rng.uniform(1.0, 4.0)))
    for definition in RelevancyDefinition:
        values, probs, starts = derive_packed(
            np.asarray(estimates),
            np.asarray([error.support_size for error in errors]),
            np.concatenate([error.values for error in errors]),
            np.concatenate([error.probs for error in errors]),
            definition,
            DEFAULT_ESTIMATE_FLOOR,
        )
        assert len(starts) == len(errors) + 1, seed
        for i, (estimate, error) in enumerate(zip(estimates, errors)):
            single = derive_rd(estimate, _FixedED(error), definition)
            segment = slice(starts[i], starts[i + 1])
            assert values[segment].tobytes() == single.values.tobytes(), seed
            assert probs[segment].tobytes() == single.probs.tobytes(), seed


def test_selection_does_not_load_numpy_ma():
    # ``numpy.ma`` is a large import nothing here needs; ``np.unique``
    # loads it, so the k > 1 answer-set batch must not call it.
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        from repro.core.policies import GreedyUsefulnessPolicy
        from repro.core.topk import CorrectnessMetric, TopKComputer
        from repro.stats.distribution import DiscreteDistribution as D

        rng = np.random.default_rng(0)
        rds = [
            D.from_pairs(zip(
                np.sort(rng.choice(50, 4, replace=False)).astype(float).tolist(),
                (rng.random(4) + 0.1).tolist(),
            ))
            for _ in range(16)
        ]
        for k in (3, 1):
            computer = TopKComputer(rds, k, backend="numpy")
            choice = GreedyUsefulnessPolicy().choose(
                computer, list(range(16)), CorrectnessMetric.ABSOLUTE, 0.9
            )
            computer.collapse(choice, float(rds[choice].values[0])).best_set()
        print("numpy.ma" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "False", result.stderr
