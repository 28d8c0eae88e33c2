"""Tests for repro.core.spreading (gossip and SI epidemic)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.flooding import default_max_steps, flood
from repro.core.spreading import SpreadingResult, gossip_spread, push_pull_spread, si_epidemic
from repro.meg.base import StaticGraphProcess
from repro.meg.edge_meg import EdgeMEG


class TestGossipArguments:
    def test_requires_exactly_one_mechanism(self, small_edge_meg):
        with pytest.raises(ValueError):
            gossip_spread(small_edge_meg)
        with pytest.raises(ValueError):
            gossip_spread(small_edge_meg, transmission_probability=0.5, fanout=1)

    def test_invalid_probability(self, small_edge_meg):
        with pytest.raises(ValueError):
            gossip_spread(small_edge_meg, transmission_probability=1.5)

    def test_invalid_fanout(self, small_edge_meg):
        with pytest.raises(ValueError):
            gossip_spread(small_edge_meg, fanout=0)

    def test_invalid_source(self, small_edge_meg):
        with pytest.raises(ValueError):
            gossip_spread(small_edge_meg, source=999, transmission_probability=0.5)

    def test_si_invalid_probability(self, small_edge_meg):
        with pytest.raises(ValueError):
            si_epidemic(small_edge_meg, infection_probability=-0.1)


#: every randomised protocol, run with keyword arguments added to these
PROTOCOLS = {
    "gossip": lambda process, **kw: gossip_spread(process, transmission_probability=0.5, **kw),
    "si": lambda process, **kw: si_epidemic(process, infection_probability=0.5, **kw),
    "push-pull": push_pull_spread,
}


class TestFloodingPrologue:
    """The protocols start the way flooding does (one prologue, one check order)."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_negative_max_steps_is_rejected(self, protocol, small_edge_meg):
        with pytest.raises(ValueError, match="max_steps must be non-negative, got -1"):
            PROTOCOLS[protocol](small_edge_meg, rng=0, max_steps=-1)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_source_out_of_range_is_named(self, protocol, small_edge_meg):
        with pytest.raises(ValueError, match="source 40 out of range for 40 nodes"):
            PROTOCOLS[protocol](small_edge_meg, source=40, rng=0)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_default_cap_is_twice_floodings(self, protocol):
        # Two isolated nodes: no run completes, so it stops at the cap.
        graph = nx.empty_graph(2)
        result = PROTOCOLS[protocol](StaticGraphProcess(graph), rng=0)
        assert not result.completed
        assert len(result.informed_history) == 2 * default_max_steps(2) + 1 == 401


class TestGossipBehaviour:
    def test_probability_one_matches_flooding(self):
        process = StaticGraphProcess(nx.path_graph(7))
        flood_result = flood(process, source=0)
        gossip_result = gossip_spread(process, source=0, transmission_probability=1.0, rng=0)
        assert gossip_result.completion_time == flood_result.flooding_time

    def test_probability_zero_never_spreads(self, small_edge_meg):
        result = gossip_spread(
            small_edge_meg, transmission_probability=0.0, rng=0, max_steps=30
        )
        assert not result.completed
        assert result.final_informed == 1

    def test_gossip_completes_on_dynamic_graph(self, small_edge_meg):
        result = gossip_spread(small_edge_meg, transmission_probability=0.5, rng=1)
        assert result.completed
        assert result.final_informed == small_edge_meg.num_nodes

    def test_gossip_slower_than_flooding_on_average(self):
        model = EdgeMEG(60, p=0.05, q=0.5)
        flood_times = [flood(model, rng=seed).flooding_time for seed in range(8)]
        gossip_times = [
            gossip_spread(model, transmission_probability=0.3, rng=seed).completion_time
            for seed in range(8)
        ]
        assert np.mean(gossip_times) >= np.mean(flood_times)

    def test_fanout_one_completes(self, small_edge_meg):
        result = gossip_spread(small_edge_meg, fanout=1, rng=2)
        assert result.completed

    def test_fanout_limits_new_informed_per_step(self):
        # With fanout 1 on a static star, the centre informs one leaf per step.
        process = StaticGraphProcess(nx.star_graph(6))
        result = gossip_spread(process, source=0, fanout=1, rng=3)
        assert result.completion_time == 6

    def test_large_fanout_equals_flooding(self):
        process = StaticGraphProcess(nx.complete_graph(9))
        result = gossip_spread(process, source=0, fanout=100, rng=0)
        assert result.completion_time == 1

    def test_history_monotone(self, small_edge_meg):
        result = gossip_spread(small_edge_meg, transmission_probability=0.4, rng=4)
        history = result.informed_history
        assert all(a <= b for a, b in zip(history, history[1:]))

    def test_single_node_graph(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = gossip_spread(StaticGraphProcess(graph), transmission_probability=0.5)
        assert result.completion_time == 0

    def test_reproducible(self, small_edge_meg):
        a = gossip_spread(small_edge_meg, transmission_probability=0.5, rng=9)
        b = gossip_spread(small_edge_meg, transmission_probability=0.5, rng=9)
        assert a.completion_time == b.completion_time
        assert a.informed_history == b.informed_history


class TestSiEpidemic:
    def test_probability_one_is_flooding(self):
        process = StaticGraphProcess(nx.cycle_graph(8))
        flood_result = flood(process, source=0)
        si_result = si_epidemic(process, source=0, infection_probability=1.0, rng=0)
        assert si_result.completion_time == flood_result.flooding_time

    def test_epidemic_completes(self, small_edge_meg):
        result = si_epidemic(small_edge_meg, infection_probability=0.6, rng=5)
        assert result.completed

    def test_lower_probability_is_slower(self):
        model = EdgeMEG(60, p=0.08, q=0.5)
        fast = [
            si_epidemic(model, infection_probability=0.9, rng=s).completion_time
            for s in range(6)
        ]
        slow = [
            si_epidemic(model, infection_probability=0.2, rng=s).completion_time
            for s in range(6)
        ]
        assert np.mean(slow) >= np.mean(fast)


class TestSpreadingResult:
    def test_time_to_fraction(self):
        result = SpreadingResult(0, 10, (1, 4, 8, 10), 3)
        assert result.time_to_fraction(0.5) == 2
        assert result.time_to_fraction(1.0) == 3

    def test_time_to_fraction_invalid(self):
        result = SpreadingResult(0, 10, (1, 10), 1)
        with pytest.raises(ValueError):
            result.time_to_fraction(2.0)

    def test_completed_flag(self):
        assert SpreadingResult(0, 5, (1, 5), 1).completed
        assert not SpreadingResult(0, 5, (1, 3), None).completed
