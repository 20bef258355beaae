import math

import numpy as np
import pytest

from dpgo.env import Action, AlreadyProcessedEdge, Observation, PoseGraphEnv
from dpgo.geometry import Pose2, compose, se2_exp
from dpgo.graph import EdgeOrigin, GraphError, localization_error
from dpgo.synth import GenSpec, generate

from conftest import edge, make_graph, vertex


def two_pose_graph(meas_x=2.0):
    """Truth: v1 one meter ahead of v0. One odometry edge measured at meas_x."""
    return make_graph(
        [
            vertex(0, timestep=0, estimate=Pose2(0, 0, 0), truth=Pose2(0, 0, 0)),
            vertex(1, timestep=1, estimate=Pose2(1, 0, 0), truth=Pose2(1, 0, 0)),
        ],
        [edge(0, 1, Pose2(meas_x, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY)],
    )


def first_unprocessed_actions(obs_list, delta=None):
    actions = []
    for obs in obs_list:
        if obs.mask.any():
            actions.append(Action(int(np.flatnonzero(obs.mask)[0]), np.zeros(3) if delta is None else delta))
        else:
            actions.append(None)
    return actions


def test_reset_single_robot_covers_graph():
    g = generate(GenSpec(n_robots=2, poses_per_robot=15, seed=0))
    env = PoseGraphEnv(g, 1)
    obs = env.reset()
    assert len(obs) == 1
    assert obs[0].mask.sum() == g.num_edges


def test_reset_three_robots_edge_counts_sum():
    g = generate(GenSpec(n_robots=3, poses_per_robot=20, seed=1))
    env = PoseGraphEnv(g, 3)
    obs = env.reset()
    assert sum(o.mask.sum() for o in obs) == g.num_edges
    assert env.horizon == max(o.mask.shape[0] for o in obs)


def test_zero_action_gives_zero_prebonus_reward():
    env = PoseGraphEnv(two_pose_graph(), 1, bonus_scale=0.0)
    obs = env.reset()
    _, rewards, done, _ = env.step(first_unprocessed_actions(obs))
    assert done
    assert rewards[0] == 0.0


def test_reward_matches_tanh_of_normalized_gain():
    # L goes 1.0 -> 0.5; reward is tanh(0.5 / (1 + eps)) before the bonus
    env = PoseGraphEnv(two_pose_graph(meas_x=2.0), 1, bonus_scale=0.0, delta_max_t=2.0)
    obs = env.reset()
    assert abs(env.local_errors()[0] - 1.0) < 1e-12
    delta = np.array([math.sqrt(0.5) - 1.0, 0.0, 0.0])
    _, rewards, _, info = env.step([Action(0, delta)])
    expect = math.tanh(0.5 / (1.0 + 1e-8))
    assert abs(rewards[0] - expect) < 1e-9
    assert abs(expect - 0.46211715332777115) < 1e-9


def test_terminal_bonus_value():
    env = PoseGraphEnv(two_pose_graph(meas_x=2.0), 1, delta_max_t=2.0)
    env.reset()
    _, rewards, done, info = env.step([Action(0, np.array([math.sqrt(0.5) - 1.0, 0.0, 0.0]))])
    assert done
    want_bonus = math.log(1.0 / (0.5 + 1e-8))
    assert abs(info["terminal_bonus"] - want_bonus) < 1e-9
    assert abs(rewards[0] - (math.tanh(0.5 / 1.00000001) + want_bonus)) < 1e-9


def test_terminal_bonus_is_zero_when_the_episode_starts_at_zero_error():
    # the measurement equals the truth relative, so L_0 = 0
    env = PoseGraphEnv(two_pose_graph(meas_x=1.0), 1)
    env.reset()
    assert env.l0_global == 0.0
    _, rewards, done, info = env.step([Action(0, np.zeros(3))])
    assert done
    assert info["l_final"] == 0.0
    assert info["terminal_bonus"] == 0.0
    assert rewards[0] == 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: PoseGraphEnv(two_pose_graph(), 1, delta_max_t=-0.25),
        lambda: PoseGraphEnv(two_pose_graph(), 1, delta_max_t=0.0),
        lambda: PoseGraphEnv(two_pose_graph(), 1, delta_max_theta=math.nan),
        lambda: PoseGraphEnv(two_pose_graph(), 1, delta_max_theta=math.inf),
        lambda: PoseGraphEnv(two_pose_graph(), 1, bonus_scale=math.inf),
        lambda: PoseGraphEnv(two_pose_graph(), 1, bonus_scale=math.nan),
    ],
    ids=[
        "negative_delta_max_t", "zero_delta_max_t", "nan_delta_max_theta", "inf_delta_max_theta",
        "inf_bonus_scale", "nan_bonus_scale",
    ],
)
def test_malformed_bounds_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_exact_restore_gives_positive_reward():
    env = PoseGraphEnv(two_pose_graph(meas_x=2.0), 1, delta_max_t=2.0, bonus_scale=0.0)
    env.reset()
    # measurement composed with delta must equal the truth relative (1, 0, 0)
    _, rewards, _, _ = env.step([Action(0, np.array([-1.0, 0.0, 0.0]))])
    assert rewards[0] > 0.0
    assert env.local_errors()[0] < 1e-20


def test_delta_clamping():
    env = PoseGraphEnv(two_pose_graph(), 1)
    d = env.clamp_delta(np.array([10.0, 10.0, 3.0]))
    assert abs(math.hypot(d[0], d[1]) - env.delta_max_t) < 1e-12
    assert d[2] == env.delta_max_theta
    # direction is preserved by the norm clamp
    assert abs(d[0] - d[1]) < 1e-12


def test_measurement_update_is_right_composition():
    env = PoseGraphEnv(two_pose_graph(meas_x=2.0), 1, bonus_scale=0.0)
    env.reset()
    delta = np.array([0.1, -0.05, 0.02])
    env.step([Action(0, delta)])
    want = compose(Pose2(2.0, 0.0, 0.0), se2_exp(delta))
    assert np.abs(env.meas[0][0] - want.as_vector()).max() < 1e-12


def test_already_processed_edge_raises():
    g = generate(GenSpec(n_robots=1, poses_per_robot=6, seed=2))
    env = PoseGraphEnv(g, 1)
    env.reset()
    env.step([Action(0, np.zeros(3))])
    with pytest.raises(AlreadyProcessedEdge):
        env.step([Action(0, np.zeros(3))])


def env_state(env):
    return [m.copy() for m in env.masks], [m.copy() for m in env.meas], env.local_errors(), env.t


def assert_state_equal(env, before):
    masks, meas, errors, t = before
    assert all(np.array_equal(a, b) for a, b in zip(env.masks, masks))
    assert all(np.array_equal(a, b) for a, b in zip(env.meas, meas))
    assert np.array_equal(env.local_errors(), errors)
    assert env.t == t


def test_rejected_joint_action_changes_nothing():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=0))
    env = PoseGraphEnv(g, 2)
    obs = env.reset()
    good = first_unprocessed_actions(obs, delta=np.array([0.1, -0.05, 0.02]))[0]
    before = env_state(env)
    # robot 0's action is valid, robot 1 names an edge it does not have
    with pytest.raises(AlreadyProcessedEdge):
        env.step([good, Action(obs[1].mask.shape[0], np.zeros(3))])
    assert_state_equal(env, before)


def test_non_finite_or_misshapen_delta_is_rejected():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=0))
    env = PoseGraphEnv(g, 2)
    obs = env.reset()
    good = first_unprocessed_actions(obs, delta=np.array([0.1, -0.05, 0.02]))[0]
    before = env_state(env)
    for delta in ([0.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [0.0, 0.0], np.zeros((1, 3))):
        with pytest.raises(ValueError):
            env.step([good, Action(0, np.array(delta))])
        assert_state_equal(env, before)
    _, rewards, _, _ = env.step([good, Action(0, np.zeros(3))])
    assert np.isfinite(rewards).all()
    assert np.isfinite(env.local_errors()).all()


def test_noop_rules():
    g = two_pose_graph()
    env = PoseGraphEnv(g, 1)
    env.reset()
    with pytest.raises(ValueError):
        env.step([None])  # robot still has work; None not allowed


def test_episode_lengths_equal_local_edge_counts():
    rng = np.random.default_rng(5)
    for seed in range(4):
        g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=seed))
        env = PoseGraphEnv(g, 3)
        obs = env.reset()
        counts = [int(o.mask.sum()) for o in obs]
        acted = [0, 0, 0]
        done = False
        steps = 0
        while not done:
            actions = first_unprocessed_actions(obs, delta=rng.normal(0, 0.05, 3))
            for b, a in enumerate(actions):
                if a is not None:
                    acted[b] += 1
            obs, _, done, _ = env.step(actions)
            steps += 1
        assert acted == counts
        assert steps == env.horizon == max(counts)


def test_telescoping_identity():
    g = generate(GenSpec(n_robots=2, poses_per_robot=15, seed=3))
    env = PoseGraphEnv(g, 2, record_trace=True)
    obs = env.reset()
    l0 = env.local_errors()
    rng = np.random.default_rng(0)
    done = False
    while not done:
        obs, _, done, _ = env.step(first_unprocessed_actions(obs, delta=rng.normal(0, 0.1, 3)))
    lt = env.local_errors()
    prods = np.ones(2)
    for row in env.trace:
        if "robot" in row:
            prods[row["robot"]] *= 1.0 - row["raw_gain"]
    for b in range(2):
        want = lt[b] / l0[b]
        assert abs(prods[b] - want) <= 1e-6 * max(1.0, abs(want))


def test_environment_transition_deterministic():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=4))
    envs = [PoseGraphEnv(g, 2) for _ in range(2)]
    rng = np.random.default_rng(9)
    deltas = rng.normal(0, 0.1, size=(50, 3))
    results = []
    for env in envs:
        obs = env.reset()
        rewards_log = []
        done, k = False, 0
        while not done:
            obs, r, done, _ = env.step(first_unprocessed_actions(obs, delta=deltas[k]))
            rewards_log.append(r.copy())
            k += 1
        results.append((np.concatenate([m for m in env.meas]), np.array(rewards_log)))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_reward_free_mode_without_truth():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=6))
    for v in g.vertices.values():
        v.truth = None
    env = PoseGraphEnv(g, 2)
    obs = env.reset()
    assert env.reward_free
    _, rewards, _, info = env.step(first_unprocessed_actions(obs))
    assert info["reward_free"]
    assert np.all(rewards == 0.0)


def test_current_graph_carries_corrections():
    env = PoseGraphEnv(two_pose_graph(meas_x=2.0), 1, bonus_scale=0.0)
    env.reset()
    env.step([Action(0, np.array([0.1, 0.0, 0.0]))])
    g = env.current_graph()
    assert abs(g.edges[0].rel.x - 2.1) < 1e-12


def test_current_graph_matches_rebuild_through_constructor():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=4))
    env = PoseGraphEnv(g, 3)
    obs = env.reset()
    rng = np.random.default_rng(0)
    for _ in range(5):
        obs, _, _, _ = env.step(first_unprocessed_actions(obs, rng.uniform(-0.2, 0.2, 3)))
    got = env.current_graph()
    edges = [edge(e.from_id, e.to_id, e.rel, e.info, e.origin) for e in env.graph.edges]
    for b, gids in enumerate(env.part.edge_gids):
        for i, gid in enumerate(gids):
            e = edges[gid]
            edges[gid] = edge(e[0], e[1], Pose2(*env.meas[b][i]), e[3], e[4])
    want = make_graph(
        [vertex(vid, v.robot, v.timestep, v.estimate, v.truth) for vid, v in env.graph.vertices.items()], edges
    )
    assert len(got.edges) == len(want.edges)
    for a, e in zip(got.edges, want.edges):
        assert (a.from_id, a.to_id, a.origin, a.rel) == (e.from_id, e.to_id, e.origin, e.rel)
        assert np.array_equal(a.info, e.info)
    assert sum(a.rel != e.rel for a, e in zip(got.edges, env.graph.edges)) == 15
    assert localization_error(got) == localization_error(want)
