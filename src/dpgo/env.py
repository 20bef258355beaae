"""Multi-robot edge-refinement environment.

Each robot observes its partitioned subgraph and, per step, picks one of its
unprocessed edges plus a bounded pose correction. The correction is
right-composed onto the edge's measurement; vertex estimates never change
during an episode. Rewards are the tanh-smoothed normalized reduction of the
robot's information-weighted measurement-vs-truth error, with a terminal
bonus shared by all robots proportional to log(L_0 / L_T).

Robot b's subgraph is the partition block ``part.subgraphs[b]``; its local
edge k is the block's edge row k, whose global edge id is
``part.edge_gids[b][k]``. ``Observation.snapshot`` is that block, read as is
by the encoder, and ``Observation.meas`` its current measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose2, compose, se2_exp
from .graph import GraphError, PoseGraph, se2_residuals
from .partition import Partition, partition


class AlreadyProcessedEdge(GraphError):
    pass


@dataclass(frozen=True)
class RewardConfig:
    epsilon: float = 1e-8
    clip: float = 1.0
    bonus_scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.clip > 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if not math.isfinite(self.bonus_scale):
            raise ValueError(f"bonus_scale must be finite, got {self.bonus_scale}")


@dataclass
class Action:
    edge: int  # index into the robot's local edge list
    delta: np.ndarray  # (dx, dy, dtheta)


@dataclass
class Observation:
    robot: int
    snapshot: PoseGraph  # the robot's partition block
    meas: np.ndarray  # (E, 3) current measurements as (x, y, theta)
    mask: np.ndarray  # (E,) True where still unprocessed


class PoseGraphEnv:
    """Single-writer environment; deterministic given state and joint action."""

    def __init__(
        self,
        graph: PoseGraph,
        n_robots: int,
        *,
        reward: RewardConfig | None = None,
        balance_tol: float = 0.15,
        delta_max_t: float = 0.25,
        delta_max_theta: float = 0.15,
        record_trace: bool = False,
    ):
        for name, bound in (("delta_max_t", delta_max_t), ("delta_max_theta", delta_max_theta)):
            if not 0 < bound < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {bound}")
        self.graph = graph.copy()
        self.n_robots = n_robots
        self.reward_cfg = reward or RewardConfig()
        self.delta_max_t = delta_max_t
        self.delta_max_theta = delta_max_theta
        self.record_trace = record_trace
        self.reward_free = bool(np.isnan(graph.truths).any())

        self.part: Partition = partition(self.graph, n_robots, balance_tol)
        self.reset()

    # -- episode control ------------------------------------------------------

    def reset(self) -> list[Observation]:
        self.meas = [sub.meas.copy() for sub in self.part.subgraphs]
        self.masks = [np.ones(sub.num_edges, dtype=bool) for sub in self.part.subgraphs]
        self.t = 0
        self.done = False
        self.trace: list[dict] = []
        if not self.reward_free:
            self._terms = [self._edge_terms(b) for b in range(self.n_robots)]
            self._l = np.array([t.sum() for t in self._terms])
            self.l0_global = float(self._l.sum())
        else:
            self._terms, self._l, self.l0_global = None, None, None
        return self.observations()

    def observations(self) -> list[Observation]:
        return [
            Observation(b, self.part.subgraphs[b], self.meas[b].copy(), self.masks[b].copy())
            for b in range(self.n_robots)
        ]

    @property
    def horizon(self) -> int:
        return max((sub.num_edges for sub in self.part.subgraphs), default=0)

    def local_errors(self) -> np.ndarray:
        return self._l.copy()

    def _edge_terms(self, b: int, rows=slice(None)) -> np.ndarray:
        """Information-weighted measurement-vs-truth error of robot b's edges."""
        sub = self.part.subgraphs[b]
        r = se2_residuals(sub.truths[sub.e_from[rows]], sub.truths[sub.e_to[rows]], self.meas[b][rows])
        return np.einsum("ei,eij,ej->e", r, sub.info[rows], r)

    def clamp_delta(self, delta) -> np.ndarray:
        d = np.asarray(delta, dtype=float).copy()
        norm = math.hypot(d[0], d[1])
        if norm > self.delta_max_t:
            d[:2] *= self.delta_max_t / norm
        d[2] = float(np.clip(d[2], -self.delta_max_theta, self.delta_max_theta))
        return d

    def step(self, actions) -> tuple[list[Observation], np.ndarray, bool, dict]:
        if self.done:
            raise GraphError("episode already finished")
        if len(actions) != self.n_robots:
            raise ValueError("need one action (or None) per robot")
        for b, action in enumerate(actions):
            if not self.masks[b].any():
                if action is not None:
                    raise AlreadyProcessedEdge(f"robot {b} has no unprocessed edges")
                continue
            if action is None:
                raise ValueError(f"robot {b} still has unprocessed edges; action required")
            e = int(action.edge)
            if e < 0 or e >= self.masks[b].shape[0] or not self.masks[b][e]:
                raise AlreadyProcessedEdge(f"robot {b}: edge {e} is not unprocessed")
            delta = np.asarray(action.delta, dtype=float)
            if delta.shape != (3,) or not np.isfinite(delta).all():
                raise ValueError(f"robot {b}: delta must be 3 finite numbers, got {action.delta!r}")
        # every action is valid: apply them all
        rewards = np.zeros(self.n_robots)
        gains = np.zeros(self.n_robots)
        eps = self.reward_cfg.epsilon
        for b, action in enumerate(actions):
            if action is None:
                continue
            e = int(action.edge)
            delta = self.clamp_delta(action.delta)
            new_rel = compose(Pose2(*self.meas[b][e]), se2_exp(delta))
            self.meas[b][e] = new_rel.as_vector()
            self.masks[b][e] = False
            if not self.reward_free:
                l_prev = float(self._l[b])
                new_term = float(self._edge_terms(b, [e])[0])
                self._l[b] = l_prev - self._terms[b][e] + new_term
                self._terms[b][e] = new_term
                gains[b] = (l_prev - self._l[b]) / (l_prev + eps)
                rewards[b] = float(
                    np.clip(math.tanh(gains[b]), -self.reward_cfg.clip, self.reward_cfg.clip)
                )
            if self.record_trace:
                self.trace.append(
                    {
                        "step": self.t,
                        "robot": b,
                        "edge_gid": int(self.part.edge_gids[b][e]),
                        "delta": [float(x) for x in delta],
                        "raw_gain": float(gains[b]),
                        "reward": float(rewards[b]),
                        "L_robot": None if self.reward_free else float(self._l[b]),
                    }
                )
        self.t += 1
        self.done = all(not m.any() for m in self.masks)
        info = {"gains": gains, "reward_free": self.reward_free}
        if self.done and not self.reward_free:
            l_final = float(self._l.sum())
            # the floor keeps the log finite when the episode starts at zero error
            bonus = self.reward_cfg.bonus_scale * math.log(max(self.l0_global, eps) / (l_final + eps))
            rewards += bonus
            info["terminal_bonus"] = bonus
            info["l_final"] = l_final
            if self.record_trace:
                self.trace.append({"step": self.t - 1, "terminal_bonus": bonus, "L_final": l_final})
        if not self.reward_free:
            info["l_per_robot"] = self._l.copy()
        return self.observations(), rewards, self.done, info

    # -- exports ---------------------------------------------------------------

    def current_graph(self) -> PoseGraph:
        """Global graph carrying the corrected measurements."""
        meas = self.graph.meas.copy()
        for gids, local in zip(self.part.edge_gids, self.meas):
            meas[gids] = local
        return replace(self.graph, meas=meas)
