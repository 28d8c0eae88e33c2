"""Tests for repro.meg.edge_meg (classic and generalised edge-MEGs)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import flooding_time_samples
from repro.engine import resolve_backend
from repro.markov.builders import birth_death_chain, two_state_chain, uniform_chain
from repro.meg.base import StaticGraphProcess, all_pairs
from repro.meg.edge_meg import EdgeMEG, GeneralEdgeMEG
from repro.meg.erdos_renyi import ErdosRenyiSequence


class ReferenceEdgeMEG:
    """Per-pair boolean edge-MEG stepping, the form the active-edge index replaced.

    One state per ``all_pairs`` pair, advanced by ``np.where`` over every
    pair: the oracle for both the edge sets and the random stream of
    :class:`EdgeMEG`.
    """

    def __init__(self, num_nodes, p, q, initial_edge_probability=None):
        self.pairs = np.array(all_pairs(num_nodes), dtype=int).reshape(-1, 2)
        self.p, self.q = p, q
        self.initial = initial_edge_probability

    def reset(self, rng):
        self.rng = rng
        probability = self.p / (self.p + self.q) if self.initial is None else self.initial
        self.states = rng.random(self.pairs.shape[0]) < probability

    def step(self):
        u = self.rng.random(self.states.shape[0])
        self.states = np.where(self.states, u >= self.q, u < self.p)

    def edges(self):
        return [(int(i), int(j)) for i, j in self.pairs[self.states]]


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.01, max_value=0.99))


class TestEdgeMEGConstruction:
    def test_valid(self):
        model = EdgeMEG(10, p=0.1, q=0.2)
        assert model.num_nodes == 10
        assert model.p == 0.1
        assert model.q == 0.2

    def test_stationary_edge_probability(self):
        assert EdgeMEG(5, p=0.1, q=0.3).stationary_edge_probability() == pytest.approx(0.25)

    def test_rejects_frozen_chain(self):
        with pytest.raises(ValueError):
            EdgeMEG(5, p=0.0, q=0.0)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            EdgeMEG(5, p=1.5, q=0.1)

    def test_rejects_invalid_initial_probability(self):
        with pytest.raises(ValueError):
            EdgeMEG(5, p=0.1, q=0.1, initial_edge_probability=2.0)

    def test_edge_chain_matches_parameters(self):
        chain = EdgeMEG(5, p=0.1, q=0.3).edge_chain()
        assert chain.transition_probability("off", "on") == pytest.approx(0.1)
        assert chain.transition_probability("on", "off") == pytest.approx(0.3)

    def test_step_before_reset_raises(self):
        model = EdgeMEG(5, p=0.1, q=0.1)
        with pytest.raises(RuntimeError):
            model.step()
        with pytest.raises(RuntimeError):
            list(model.current_edges())


class TestEdgeMEGDynamics:
    def test_reset_is_reproducible(self):
        model = EdgeMEG(20, p=0.2, q=0.2)
        model.reset(5)
        first = set(model.current_edges())
        model.reset(5)
        assert set(model.current_edges()) == first

    def test_different_seeds_differ(self):
        model = EdgeMEG(20, p=0.5, q=0.5)
        model.reset(1)
        a = set(model.current_edges())
        model.reset(2)
        b = set(model.current_edges())
        assert a != b

    def test_empty_start(self):
        model = EdgeMEG(10, p=0.1, q=0.1, initial_edge_probability=0.0)
        model.reset(0)
        assert model.edge_count() == 0

    def test_full_start(self):
        model = EdgeMEG(10, p=0.1, q=0.1, initial_edge_probability=1.0)
        model.reset(0)
        assert model.edge_count() == 45

    def test_p_one_fills_graph(self):
        model = EdgeMEG(8, p=1.0, q=0.0, initial_edge_probability=0.0)
        model.reset(0)
        model.step()
        assert model.edge_count() == 28

    def test_q_one_empties_graph(self):
        model = EdgeMEG(8, p=0.0, q=1.0, initial_edge_probability=1.0)
        model.reset(0)
        model.step()
        assert model.edge_count() == 0

    def test_stationary_density_matches(self):
        model = EdgeMEG(30, p=0.2, q=0.2)
        model.reset(3)
        counts = []
        for _ in range(200):
            counts.append(model.edge_count())
            model.step()
        total_pairs = 30 * 29 / 2
        assert np.mean(counts) / total_pairs == pytest.approx(0.5, abs=0.05)

    def test_time_counter(self):
        model = EdgeMEG(5, p=0.5, q=0.5)
        model.reset(0)
        model.run(7)
        assert model.time == 7

    def test_neighbors_of_set_matches_generic(self):
        model = EdgeMEG(15, p=0.3, q=0.3)
        model.reset(9)
        informed = {0, 3, 7}
        fast = model.neighbors_of_set(informed)
        slow = set()
        for i, j in model.current_edges():
            if i in informed:
                slow.add(j)
            if j in informed:
                slow.add(i)
        assert fast == slow

    def test_edges_are_canonical_pairs(self):
        model = EdgeMEG(10, p=0.5, q=0.1)
        model.reset(2)
        for i, j in model.current_edges():
            assert 0 <= i < j < 10


class TestGeneralEdgeMEG:
    def test_two_state_equivalence_of_alpha(self):
        chain = two_state_chain(0.1, 0.3)
        model = GeneralEdgeMEG(10, chain, chi=lambda s: s == "on")
        assert model.stationary_edge_probability() == pytest.approx(0.25)

    def test_chi_as_sequence(self):
        chain = uniform_chain(4)
        model = GeneralEdgeMEG(6, chain, chi=[0, 1, 1, 0])
        assert model.stationary_edge_probability() == pytest.approx(0.5)

    def test_chi_all_zero_rejected(self):
        chain = uniform_chain(3)
        with pytest.raises(ValueError, match="every state to 0"):
            GeneralEdgeMEG(5, chain, chi=[0, 0, 0])

    def test_chi_wrong_length_rejected(self):
        chain = uniform_chain(3)
        with pytest.raises(ValueError):
            GeneralEdgeMEG(5, chain, chi=[1, 0])

    def test_invalid_initial_distribution(self):
        chain = uniform_chain(3)
        with pytest.raises(ValueError):
            GeneralEdgeMEG(5, chain, chi=[1, 0, 0], initial_distribution=[0.5, 0.5, 0.5])

    def test_step_before_reset_raises(self):
        model = GeneralEdgeMEG(5, uniform_chain(2), chi=[0, 1])
        with pytest.raises(RuntimeError):
            model.step()

    def test_reproducible(self):
        chain = birth_death_chain([0.4, 0.4, 0.0], [0.0, 0.4, 0.4])
        model = GeneralEdgeMEG(12, chain, chi=[0, 0, 1])
        model.reset(11)
        first = set(model.current_edges())
        model.reset(11)
        assert set(model.current_edges()) == first

    def test_empirical_density_matches_alpha(self):
        chain = birth_death_chain([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
        model = GeneralEdgeMEG(20, chain, chi=[0, 0, 1])
        alpha = model.stationary_edge_probability()
        model.reset(7)
        counts = []
        for _ in range(300):
            counts.append(model.edge_count())
            model.step()
        total_pairs = 20 * 19 / 2
        assert np.mean(counts) / total_pairs == pytest.approx(alpha, abs=0.05)

    def test_deterministic_on_chain_keeps_all_edges(self):
        # A chain frozen in the 'on' state keeps every edge forever.
        from repro.markov.chain import MarkovChain

        frozen = MarkovChain([[1.0, 0.0], [0.0, 1.0]], states=("on", "off"))
        model = GeneralEdgeMEG(
            6, frozen, chi=lambda s: s == "on", initial_distribution=[1.0, 0.0]
        )
        model.reset(0)
        model.run(5)
        assert model.edge_count() == 15

    def test_neighbors_of_set(self):
        chain = two_state_chain(0.5, 0.5)
        model = GeneralEdgeMEG(10, chain, chi=lambda s: s == "on")
        model.reset(4)
        informed = {0, 1}
        fast = model.neighbors_of_set(informed)
        slow = set()
        for i, j in model.current_edges():
            if i in informed:
                slow.add(j)
            if j in informed:
                slow.add(i)
        assert fast == slow

    def test_chi_flags_copy(self):
        model = GeneralEdgeMEG(5, uniform_chain(2), chi=[0, 1])
        flags = model.chi_flags()
        flags[0] = True
        assert not model.chi_flags()[0]


class TestActiveEdgeIndex:
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=rates,
        q=rates,
        initial=st.sampled_from([None, 0.0, 1.0]),
        steps=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_reference(self, n, p, q, initial, steps, seed):
        if p == 0.0 and q == 0.0:
            p = 0.5
        model = EdgeMEG(n, p=p, q=q, initial_edge_probability=initial)
        reference = ReferenceEdgeMEG(n, p, q, initial)
        model_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        model.reset(model_rng)
        reference.reset(reference_rng)
        for _ in range(steps + 1):
            assert list(model.current_edges()) == reference.edges()
            assert model.edge_count() == len(reference.edges())
            model.step()
            reference.step()
        assert model_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
    def test_triu_order_is_all_pairs_order(self, n):
        assert np.stack(np.triu_indices(n, 1), axis=1).tolist() == [
            list(pair) for pair in all_pairs(n)
        ]
        model = EdgeMEG(n, p=0.5, q=0.5, initial_edge_probability=1.0)
        model.reset(0)
        assert list(model.current_edges()) == all_pairs(n)

    def test_snapshot_views_agree(self):
        model = EdgeMEG(30, p=0.1, q=0.3)
        model.reset(4)
        for _ in range(5):
            pairs = model.edge_pairs()
            assert [tuple(pair) for pair in pairs.tolist()] == list(model.current_edges())
            dense = model.adjacency_matrix()
            assert (dense == dense.T).all() and int(dense.sum()) == 2 * len(pairs)
            assert (model.sparse_adjacency().toarray() != 0).tolist() == dense.tolist()
            model.step()

    def test_sparse_regime_backends_agree(self):
        model = EdgeMEG(1024, p=1 / 1023, q=0.5)
        assert resolve_backend("auto", model) == "sparse"
        samples = {
            backend: flooding_time_samples(model, 2, rng=3, backend=backend)
            for backend in ("set", "vectorized", "sparse")
        }
        assert samples["set"] == samples["vectorized"] == samples["sparse"]

    def test_erdos_renyi_draws_one_mask_per_snapshot(self):
        model = ErdosRenyiSequence(12, p=0.3)
        pairs = all_pairs(12)
        model_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        model.reset(model_rng)
        for _ in range(4):
            mask = reference_rng.random(len(pairs)) < 0.3
            assert list(model.current_edges()) == [
                pair for pair, on in zip(pairs, mask) if on
            ]
            model.step()

    def test_default_edge_pairs_collects_current_edges(self):
        process = StaticGraphProcess(nx.cycle_graph(6))
        pairs = process.edge_pairs()
        assert pairs.shape == (6, 2)
        assert [tuple(pair) for pair in pairs.tolist()] == list(process.current_edges())
        empty = StaticGraphProcess(nx.empty_graph(3))
        assert empty.edge_pairs().shape == (0, 2)
        assert empty.sparse_adjacency().nnz == 0
