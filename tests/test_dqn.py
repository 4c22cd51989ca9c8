from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.ai.dqn import (ACTION_TABLE, DqnAgents, DqnConfig, N_ACTIONS,
                           apply_actions, dqn_train, obs_dim, observe,
                           window_collision)
from ranopt.scenarios import load_bundled
from ranopt.simcore import engine
from ranopt.simcore.types import HotspotCluster, MeasurementRecord

from conftest import make_cell, make_scenario
from naive_oracle import (dqn_train_per_agent, evaluate_joint, greedy_actions,
                          observe_per_record)


def meas(cell_id, pos):
    return MeasurementRecord(timestamp_s=0.0, user_id="u", cell_id=cell_id,
                             beam_id=0, signal_type="SSB", rsrp_dbm=-80.0,
                             sinr_db=10.0, rate_mbps=10.0, pos=pos)


class TestPrimitives:
    def test_action_table(self):
        assert N_ACTIONS == 12
        assert ACTION_TABLE[0] == (0, -3.0)
        assert ACTION_TABLE[11] == (3, 3.0)
        assert len(set(ACTION_TABLE)) == 12

    def test_network_collision_user_weighted(self):
        w = SimpleNamespace(num_users=np.array([3, 1, 0]),
                            collision=np.array([1.0 / 3.0, 1.0, 0.0]))
        # 1 + 1 colliding users out of 4
        assert window_collision(w) == pytest.approx(0.5)
        w = SimpleNamespace(num_users=np.array([0]), collision=np.array([0.0]))
        assert window_collision(w) == 0.0

    def test_apply_actions_sets_fields(self):
        sc = make_scenario(cells=[make_cell("c1"), make_cell("c2")])
        out = apply_actions(sc, {"c1": 11, "c2": 3})
        assert out.cell("c1").pattern_id == 3
        assert out.cell("c1").cio_db == 3.0
        assert out.cell("c2").pattern_id == 1
        assert out.cell("c2").cio_db == -3.0

    def test_observe_octant_counts(self):
        sc = make_scenario(cells=[make_cell("c1", azimuth_deg=0.0)])
        ms = [meas("c1", (100.0, 1.0)),   # straight ahead -> octant of 0 deg
              meas("c1", (0.0, 100.0)),   # +90 deg
              meas("c1", (-100.0, 1.0)),  # 180 deg
              meas("other", (100.0, 0.0))]
        ids, pos = [m.cell_id for m in ms], [m.pos for m in ms]
        obs = observe(sc, 0, ids, pos)
        assert obs.shape == (obs_dim(1),)
        counts = obs[:8] * 10.0
        assert counts.sum() == pytest.approx(3.0)  # foreign cell ignored
        # rotating the cell rotates the octants
        sc2 = make_scenario(cells=[make_cell("c1", azimuth_deg=90.0)])
        obs2 = observe(sc2, 0, ids, pos)
        assert not np.allclose(obs[:8], obs2[:8])

    def test_observe_neighbor_summary(self):
        sc = make_scenario(cells=[make_cell("c1"),
                                  make_cell("c2", pattern_id=3, cio_db=3.0)])
        obs = observe(sc, 0, [], np.empty((0, 2)))
        assert obs[8] == pytest.approx(1.0)   # neighbor pattern 3 / 3
        assert obs[9] == pytest.approx(1.0)   # neighbor cio 3 / 3

    # directions whose angle from a site at the origin is an exact multiple
    # of 45 degrees: with an azimuth that is one too, a user sits exactly
    # on a sector boundary
    BOUNDARY = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0), (1.0, -1.0)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_observe_equals_the_per_record_loop(self, data):
        n_cells = data.draw(st.integers(1, 3), label="cells")
        azimuth = st.one_of(st.sampled_from([0.0, 22.5, 45.0, 90.0, 135.0,
                                             180.0, 270.0, 315.0]),
                            st.floats(0.0, 359.999))
        cells = [make_cell(f"c{i}", azimuth_deg=data.draw(azimuth),
                           site_pos=(0.0, 0.0, 25.0) if i == 0 else (
                               data.draw(st.floats(-500.0, 500.0)),
                               data.draw(st.floats(-500.0, 500.0)), 25.0))
                 for i in range(n_cells)]
        sc = make_scenario(cells=cells)
        # users of some cells, of no cell in the network, or of none at all
        user = st.tuples(
            st.sampled_from([c.cell_id for c in cells] + ["other"]),
            st.one_of(st.builds(lambda d, r: (d[0] * r, d[1] * r),
                                st.sampled_from(self.BOUNDARY),
                                st.sampled_from([1.0, 37.5, 250.0])),
                      st.tuples(st.floats(-2000.0, 2000.0),
                                st.floats(-2000.0, 2000.0))))
        ms = [meas(cid, pos) for cid, pos in
              data.draw(st.lists(user, max_size=40), label="users")]
        ids = [m.cell_id for m in ms]
        pos = np.array([m.pos for m in ms]).reshape(-1, 2)
        for i in range(n_cells):
            assert np.array_equal(observe(sc, i, ids, pos),
                                  observe_per_record(sc, i, ms))


OBS_DIM = obs_dim(2)


def one_agent(allowed=None, config=None, seed=0):
    """The agents of a one-cell network."""
    return DqnAgents(["c1"], OBS_DIM, {"c1": allowed} if allowed else None,
                     config, seed)


class TestAgent:
    def test_act_respects_allowed_actions(self):
        agent = one_agent(allowed=[2, 7], seed=0)
        rng = np.random.default_rng(0)
        obs = np.zeros((1, OBS_DIM))
        picks = {agent.act(obs, 1.0, rng)[0] for _ in range(50)}
        assert picks <= {2, 7}
        assert agent.greedy(obs)[0] in (2, 7)

    def test_learn_moves_q_toward_reward(self):
        config = DqnConfig(batch_size=8, learning_rate=0.01)
        agent = one_agent(config=config, seed=1)
        rng = np.random.default_rng(1)
        obs = np.ones((1, OBS_DIM)) * 0.3
        for _ in range(20):
            agent.remember(obs, [5], 1.0, obs)
        q0 = agent.q_values(obs)[0, 5]
        losses = []
        for _ in range(200):
            losses.append(float(agent.learn(rng)[0]))
        q1 = agent.q_values(obs)[0, 5]
        assert q1 > q0
        assert losses[-1] < losses[0]

    def test_learn_requires_filled_buffer(self):
        agent = one_agent(seed=2)
        assert agent.learn(np.random.default_rng(0)) is None

    def test_target_sync_copies_weights(self):
        agent = one_agent(seed=3)
        agent.q.weights[0] += 1.0
        assert not np.allclose(agent.q.weights[0], agent.target.weights[0])
        agent.sync_target()
        assert np.allclose(agent.q.weights[0], agent.target.weights[0])


def two_cell_scenario():
    cells = [make_cell("c1", site_pos=(0.0, 0.0, 25.0), azimuth_deg=0.0),
             make_cell("c2", site_pos=(500.0, 0.0, 25.0), azimuth_deg=180.0)]
    clusters = [HotspotCluster(center=(200.0, 40.0), std_m=30.0, mean_users=8.0),
                HotspotCluster(center=(300.0, -40.0), std_m=30.0, mean_users=8.0)]
    return make_scenario(cells=cells, clusters=clusters, seed=11)


class TestTraining:
    def test_training_smoke_and_curve_shape(self):
        sc = two_cell_scenario()
        config = DqnConfig(episode_len=5, target_sync_every=10)
        agents, curve = dqn_train(sc, episodes=3, config=config, seed=0)
        assert agents.cell_ids == ["c1", "c2"]
        assert len(curve) == 3
        assert all(-1.0 <= r <= 0.0 for r in curve)

    def test_greedy_actions_and_joint_eval(self):
        sc = two_cell_scenario()
        config = DqnConfig(episode_len=5, target_sync_every=10)
        allowed = {"c1": [1, 4], "c2": [1, 4]}
        agents, _ = dqn_train(sc, episodes=2, config=config,
                              allowed_actions=allowed, seed=1)
        acts = greedy_actions(agents, sc, 0.0)
        assert acts["c1"] in allowed["c1"] and acts["c2"] in allowed["c2"]
        score = evaluate_joint(sc, acts, t0_s=0.0, n_windows=2)
        assert -1.0 <= score <= 0.0

    def test_training_is_deterministic(self):
        sc = two_cell_scenario()
        config = DqnConfig(episode_len=4, target_sync_every=10)
        _, curve_a = dqn_train(sc, episodes=2, config=config, seed=5)
        _, curve_b = dqn_train(sc, episodes=2, config=config, seed=5)
        assert curve_a == curve_b


def assert_same_training(scenario, episodes, config, allowed=None, seed=0):
    """The stacked trainer's curve and every agent's Q and target weights
    equal, bit for bit, those of the per-agent trainer."""
    agents, curve = dqn_train(scenario, episodes, config, allowed, seed)
    ref_agents, ref_curve = dqn_train_per_agent(scenario, episodes, config,
                                                allowed, seed)
    assert repr(curve) == repr(ref_curve)
    assert agents.cell_ids == list(ref_agents)
    for j, ref in enumerate(ref_agents.values()):
        # row j of the stacked networks is agent j's
        for net, ref_net in ((agents.q, ref.q), (agents.target, ref.target)):
            for a, b in zip(net.weights + net.biases,
                            ref_net.weights + ref_net.biases):
                assert np.array_equal(a[j], b)


class TestStackedTrainerEqualsPerAgent:
    def test_two_cells_with_action_masks(self):
        assert_same_training(two_cell_scenario(), 3,
                             DqnConfig(episode_len=20, target_sync_every=15),
                             {"c1": [1, 4, 7], "c2": [0, 11]}, seed=4)

    def test_bundled_three_cell_hotspot(self):
        assert_same_training(load_bundled("three_cell_hotspot"), 3,
                             DqnConfig(episode_len=25), seed=1)

    def test_ring_wraps_as_the_deque_evicts_and_targets_sync(self):
        # 100 steps through a 40-transition replay, syncing every 7 steps
        assert_same_training(load_bundled("three_cell_hotspot"), 5,
                             DqnConfig(episode_len=20, replay_capacity=40,
                                       target_sync_every=7), seed=2)
