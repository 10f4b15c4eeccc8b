"""Substream families seeded in one array pass equal numpy's SeedSequence.

`seeds.derive_rngs` and `seeds.spawn_rngs` reimplement `SeedSequence`'s
mixing over whole families; `tests/oracles.py` derives each member
through numpy's own `SeedSequence` and `default_rng`.  Equal streams
must agree in what they draw and in the bit generator's state after.
Distinct consumers must never seed from one entropy row, and the cells
of a sweep share every row their axis value does not name.
"""

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import seed_sequence_rng, slotwise_sense, spawned_rngs

from specagg import seeds
from specagg.radio import RadioParams
from specagg.seeds import derive_rng, derive_rngs, derive_seed_sequence, spawn_rngs
from specagg.simulation import EpisodeConfig, NetworkScenario, Strategy, run_strategies
from specagg.topology import sense

SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
TOKENS = st.lists(
    st.one_of(
        st.text(st.characters(codec="utf-8"), max_size=6),
        st.integers(-(2**70), 2**70),
        st.integers(0, 2**16 - 1).map(np.uint16),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
    ),
    max_size=4,
)


def assert_same_streams(generators, oracle):
    for mine, want in zip(generators, oracle, strict=True):
        assert mine.random(3).tobytes() == want.random(3).tobytes()
        assert mine.integers(0, 2**40, size=2).tolist() == want.integers(0, 2**40, size=2).tolist()
        assert mine.bit_generator.state == want.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, prefix=TOKENS, count=st.integers(1, 300))
@example(seed=2**32 - 1, prefix=["gain", 7], count=300)
def test_a_family_equals_its_members_derived_through_seed_sequence(seed, prefix, count):
    oracle = [seed_sequence_rng(seed, *prefix, i) for i in range(count)]
    assert_same_streams(derive_rngs(seed, *prefix, count=count), oracle)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, tokens=TOKENS)
def test_one_stream_equals_its_seed_sequence(seed, tokens):
    assert_same_streams([derive_rng(seed, *tokens)], [seed_sequence_rng(seed, *tokens)])


PARENTS = st.one_of(
    st.integers(0, 2**32 - 1).map(np.random.SeedSequence),
    st.integers(2**32, 2**160).map(np.random.SeedSequence),
    st.builds(derive_seed_sequence, SEEDS, st.text(max_size=4), st.integers(0, 99)),
    # a parent that is itself a child carries a spawn key
    st.integers(0, 2**64).map(lambda entropy: np.random.SeedSequence(entropy).spawn(2)[1]),
    st.integers(0, 2**64).map(lambda entropy: np.random.SeedSequence(entropy, pool_size=8)),
)


@settings(max_examples=40, deadline=None)
@given(parent=PARENTS, spawned=st.integers(0, 3), count=st.integers(1, 300))
@example(parent=np.random.SeedSequence(0), spawned=0, count=1)
def test_spawned_children_equal_seed_sequence_spawn(parent, spawned, count):
    parent.spawn(spawned)  # children are numbered on from those spawned before
    children = list(spawn_rngs(parent, count))
    assert_same_streams(children, spawned_rngs(parent, count))


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, err=st.floats(0.01, 1.0), shape=st.sampled_from([(5, 7), (6, 4), (3,)]))
def test_sensing_draws_the_same_errors_from_a_family_member(seed, err, shape):
    states = np.arange(np.prod(shape), dtype=np.int8).reshape(shape) % 3
    mine = next(derive_rngs(seed, "sense", 0, "rel", count=1))
    want = seed_sequence_rng(seed, "sense", 0, "rel", 0)
    np.testing.assert_array_equal(sense(states, err, mine), slotwise_sense(states, err, want))
    assert mine.bit_generator.state == want.bit_generator.state


def test_a_family_checks_its_seed_at_once_and_builds_each_generator_when_reached():
    # a thousand-band family never holds a thousand bit generators at once
    def built():
        return sum(type(obj).__name__ == "SeedWords" for obj in gc.get_objects())

    family = derive_rngs(1, "gain", 0, count=3)
    before = built()
    first = next(family)  # noqa: F841 -- held while counting
    assert built() == before + 1
    assert len(list(family)) == 2
    with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
        derive_rngs(2**32, "gain", 0, count=3)
    with pytest.raises(TypeError, match="token of type"):
        derive_rngs(1, 0.5, count=3)


def test_derived_generators_cannot_spawn():
    with pytest.raises(TypeError):
        derive_rng(1, "topology", 0).spawn(1)


@pytest.mark.parametrize("sensing_error_rate", [0.0, 0.1])
def test_a_cell_never_gives_two_consumers_one_stream(sensing_error_rate, monkeypatch):
    # every entropy row a tiny cell of all four strategies seeds a stream
    # from, recorded per seed: none repeats within the cell, and seeds s
    # and s + 1 share none
    rows = []

    def recorded(entropy, *args, generators=seeds._generators):
        rows.extend(tuple(row) for row in entropy.tolist())
        return generators(entropy, *args)

    monkeypatch.setattr(seeds, "_generators", recorded)
    scenario = NetworkScenario(users=2, relays=3, bands=4)
    cells = []
    for seed in (7, 8):
        config = EpisodeConfig(
            slots=24, n_train=20, episodes=2, seed=seed, sensing_error_rate=sensing_error_rate
        )
        rows.clear()
        run_strategies(scenario, config, RadioParams(), list(Strategy), [10.0])
        cells.append(set(rows))
        assert len(cells[-1]) == len(rows) > 0
    assert not cells[0] & cells[1]


def test_sweep_cells_share_every_stream_their_axis_value_does_not_name(monkeypatch):
    # p0 sets only the truth chain's thresholds, so cells that differ in p0
    # alone seed the same rows; more bands add their own gain and truth
    # streams and move no other
    rows = []

    def recorded(entropy, *args, generators=seeds._generators):
        rows.extend(tuple(row) for row in entropy.tolist())
        return generators(entropy, *args)

    monkeypatch.setattr(seeds, "_generators", recorded)
    config = EpisodeConfig(slots=24, n_train=20, episodes=2, seed=7, sensing_error_rate=0.1)

    def cell_rows(bands, p0):
        rows.clear()
        scenario = NetworkScenario(users=2, relays=3, bands=bands, p0=p0)
        run_strategies(scenario, config, RadioParams(), list(Strategy), [10.0])
        return Counter(rows)

    four = cell_rows(4, 0.2)
    assert four and four == cell_rows(4, 0.6)
    six = cell_rows(6, 0.2)
    assert not four - six and six.total() > four.total()
