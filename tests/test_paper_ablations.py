"""The paper's design-choice ablations, each a small fixed-seed sweep.

These five checks sit outside the experiment registry: each builds its own
models, floods them at a fixed ``rng`` and asserts the shape the paper's
discussion predicts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bounds import edge_meg_general_bound, theorem1_bound, theorem3_bound
from repro.core.flooding import flooding_time_samples
from repro.core.stationarity import exact_parameters
from repro.markov.mixing import mixing_time
from repro.meg.edge_meg import EdgeMEG, four_state_edge_meg
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.waypoint_chain import build_waypoint_chain, waypoint_chain_mixing_time
from repro.util.mathutils import loglog_slope


def test_ablation_epoch_length():
    """Theorem 1's bound is linear in the epoch length ``M``; the flooding time is not.

    The measured flooding time of a fixed edge-MEG does not change when it
    is analysed with longer epochs, while the bound grows linearly with the
    chosen ``M`` (the conclusions conjecture the dependency is removable).
    """
    n = 100
    model = EdgeMEG(n, p=1.0 / n, q=0.5)
    alpha, beta = exact_parameters(model)
    base_epoch = max(1, mixing_time(model.edge_chain()))
    measured = float(np.mean(flooding_time_samples(model, 6, rng=0)))
    multipliers = (1, 2, 4, 8)
    bounds = [theorem1_bound(n, base_epoch * m, alpha, beta) for m in multipliers]
    measured_means = [measured for _ in multipliers]

    # The measurement is independent of the analysis epoch...
    assert len(set(measured_means)) == 1
    # ...while the bound grows linearly with it.
    assert bounds[-1] == bounds[0] * multipliers[-1]


def test_ablation_density_term_exponent():
    """The empirical exponent of ``(1/(n alpha) + beta)`` lands well below the bound's 2.

    For a classic edge-MEG (beta = 1) sweep the sparsity ``x = 1/(n alpha)``
    over a decade and fit the log-log slope of the flooding time against
    ``x`` (Section 5 suspects the square can be improved).
    """
    n = 120
    q = 0.5
    xs, measured = [], []
    for sparsity in (2.0, 4.0, 8.0, 16.0):  # x = 1/(n alpha) ~ sparsity * q
        alpha_target = 1.0 / (n * sparsity)
        p = alpha_target * q / (1.0 - alpha_target)
        model = EdgeMEG(n, p=p, q=q)
        xs.append(1.0 / (n * model.stationary_edge_probability()))
        measured.append(float(np.mean(flooding_time_samples(model, 6, rng=1))))
    exponent = loglog_slope(xs, measured)

    # The flooding time grows with sparsity, with an exponent clearly below
    # the bound's 2 — consistent with the paper's conjecture in Section 5.
    assert measured[-1] > measured[0]
    assert 0.3 <= exponent <= 1.8


def test_ablation_discretisation_resolution():
    """The waypoint's snapping resolution stops mattering once cells are fine (footnote 3).

    Section 4.1 discretises the square with an ``m x m`` grid and claims
    the resolution does not affect the bound provided it is fine enough.
    """
    n = 50
    side = math.sqrt(n)
    radius = 1.0
    trials = 4
    continuous_model = RandomWaypoint(n, side=side, radius=radius, v_min=1.0)
    continuous = float(np.mean(flooding_time_samples(continuous_model, trials, rng=0)))
    by_resolution = {}
    for resolution in (4, 8, 16, 32, 64):
        model = RandomWaypoint(n, side=side, radius=radius, v_min=1.0, snap_resolution=resolution)
        by_resolution[resolution] = float(np.mean(flooding_time_samples(model, trials, rng=0)))

    # Fine discretisations agree with the continuous simulation within 50%.
    for resolution in (16, 32, 64):
        assert abs(by_resolution[resolution] - continuous) <= 0.5 * continuous + 2.0
    # The two finest resolutions agree with each other (the value has stabilised).
    assert abs(by_resolution[64] - by_resolution[32]) <= 0.5 * by_resolution[32] + 2.0


def test_four_state_edge_meg_vs_classic():
    """The four-state edge-MEG of [5] under the Appendix A bound.

    A classic and a four-state edge-MEG share a stationary density, but the
    four-state links have longer memory (a larger mixing time), so flooding
    is slower, and the general bound, which scales with the hidden-chain
    mixing time, tracks that ordering.
    """
    n = 100
    trials = 6
    # Classic chain with alpha = 0.5 and fast mixing.
    classic = EdgeMEG(n, p=0.02 / n * n, q=0.02)  # p = q = 0.02 -> alpha = 0.5
    classic_alpha = classic.stationary_edge_probability()
    classic_tmix = mixing_time(classic.edge_chain())
    classic_mean = float(np.mean(flooding_time_samples(classic, trials, rng=0)))

    # Four-state chain with the same stationary density (symmetric up/down)
    # but long stable periods -> much slower mixing.
    refined = four_state_edge_meg(n, p_up=0.02, p_down=0.02, p_stabilize=0.05, p_destabilize=0.005)
    refined_alpha = refined.stationary_edge_probability()
    # The stable states give the chain long memory: allow the exact mixing-time
    # search enough head-room (the default cap is sized for small fast chains).
    refined_tmix = mixing_time(refined.chain, max_steps=20_000)
    refined_mean = float(np.mean(flooding_time_samples(refined, trials, rng=0)))

    classic_general_bound = edge_meg_general_bound(n, classic_tmix, classic_alpha)
    refined_general_bound = edge_meg_general_bound(n, refined_tmix, refined_alpha)

    # Same stationary density by construction.
    assert abs(classic_alpha - refined_alpha) < 0.05
    # The refined chain mixes much more slowly ...
    assert refined_tmix >= 4 * classic_tmix
    # ... and dissemination is indeed slower on the refined model.
    assert refined_mean >= classic_mean
    # The general (mixing-time aware) bound ranks the two models correctly.
    assert refined_general_bound > classic_general_bound
    # Both measurements respect their bounds.
    assert classic_mean <= classic_general_bound
    assert refined_mean <= refined_general_bound


def test_waypoint_discretisation_cross_validation():
    """The continuous waypoint against its explicit node-MEG discretisation (Section 4.1).

    States are (current cell, destination cell); the discretised chain's
    exact mixing time, P_NM and eta give Theorem 3's bound, and its flooding
    behaviour is compared with the continuous simulator at the matching
    physical parameters.
    """
    resolution = 5
    side = float(resolution)  # cell size 1, so one cell per step = speed 1
    radius = 1.1
    n = 40
    trials = 4

    discrete = build_waypoint_chain(resolution, side=side, radius=radius)
    node_meg = discrete.to_node_meg(n)
    t_mix = waypoint_chain_mixing_time(discrete)
    eta = node_meg.eta()
    bound = theorem3_bound(n, t_mix, node_meg.edge_probability(), max(eta, 1.0))
    discrete_times = flooding_time_samples(node_meg, trials, rng=0)
    continuous = RandomWaypoint(n, side=side, radius=radius, v_min=1.0)
    continuous_times = flooding_time_samples(continuous, trials, rng=0)

    # The discretised chain mixes in Theta(L / v) steps: a handful for L = 5, v = 1.
    assert 1 <= t_mix <= 40
    # The correlation parameter eta of the waypoint node-MEG is a small constant,
    # as Corollary 4 predicts via its uniformity conditions.
    assert eta <= 3.0
    # Theorem 3's bound dominates the measured discrete flooding time.
    assert float(np.max(discrete_times)) <= bound
    # Discrete and continuous simulations agree within a factor ~2.5 on the mean.
    ratio = float(np.mean(discrete_times)) / float(np.mean(continuous_times))
    assert 0.4 <= ratio <= 2.5
