"""The benchmark's workloads, built only from the public ``dpgo`` API.

Each workload has a ``setup`` (timed, repeated), an optional untimed
``reference``, a ``job`` (timed, repeated) and a ``check`` of the job's
output. Calls into ``dpgo`` go through the module attributes (``refine.lm_refine``
rather than an imported name) so that the traced run's wrappers see them.

Every workload solves one fixed instance, seeded by ``GRAPH_SEED``: the graph
and, for learn-4x100, the random policy's actions. ``--seed`` moves every pose
of that graph by a seeded rigid motion (a gauge change: the measurements, and
so the optimization problem, stay the same) and seeds the gate noise and the
encoder initialization. To try another instance, edit ``GRAPH_SEED``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from dpgo import consensus, env, g2o_io, geometry, graph, partition, refine, synth
from dpgo.nn import autodiff, encoder

OUTLIER_FRACTION = 0.1
GRAPH_SEED = 0


@dataclass(frozen=True)
class Size:
    robots: int
    poses: int
    episodes: int = 0
    encoder: encoder.EncoderConfig | None = None


TINY_ENCODER = encoder.EncoderConfig(hidden=8, n_layers=2, edge_hidden=8, gate_hidden=4)


def rigid_motion(g: graph.PoseGraph, rng) -> graph.PoseGraph:
    """Copy of ``g`` with every estimate and truth moved by one random SE(2) pose."""
    t = geometry.Pose2(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(-math.pi, math.pi))
    out = g.copy()
    for v in out.vertices.values():
        v.estimate = geometry.compose(t, v.estimate)
        if v.truth is not None:
            v.truth = geometry.compose(t, v.truth)
    return out


def _same_pose(a, b, tol=1e-12) -> bool:
    return (
        abs(a.x - b.x) <= tol * max(1.0, abs(a.x))
        and abs(a.y - b.y) <= tol * max(1.0, abs(a.y))
        and abs(geometry.wrap_angle(a.theta - b.theta)) <= tol
    )


def graph_differences(a: graph.PoseGraph, b: graph.PoseGraph) -> list[str]:
    """Differences in ids, robot/timestep, estimates, truth and edges."""
    if sorted(a.vertices) != sorted(b.vertices):
        return ["vertex ids differ"]
    out = []
    for vid, va in a.vertices.items():
        vb = b.vertices[vid]
        if (va.robot, va.timestep) != (vb.robot, vb.timestep):
            out.append(f"vertex {vid}: robot/timestep differ")
        if not _same_pose(va.estimate, vb.estimate):
            out.append(f"vertex {vid}: estimate differs")
        if (va.truth is None) != (vb.truth is None) or (va.truth is not None and not _same_pose(va.truth, vb.truth)):
            out.append(f"vertex {vid}: truth differs")
    if len(a.edges) != len(b.edges):
        return out + ["edge counts differ"]
    for k, (ea, eb) in enumerate(zip(a.edges, b.edges)):
        if (ea.from_id, ea.to_id, ea.origin) != (eb.from_id, eb.to_id, eb.origin):
            out.append(f"edge {k}: endpoints or origin differ")
        elif not _same_pose(ea.rel, eb.rel) or not np.array_equal(np.asarray(ea.info), np.asarray(eb.info)):
            out.append(f"edge {k}: measurement or information differs")
    return out


class Workload:
    """Base: subclasses set ``sizes`` (scale -> Size) and fill in setup, job and check."""

    sizes: dict[str, Size] = {}

    def __init__(self, scale: str, seed: int, workdir: str):
        self.size = self.sizes[scale]
        self.workdir = workdir
        self.gauge_seq, self.noise_seq, self.init_seq = np.random.SeedSequence(seed).spawn(3)
        # the actions are part of the instance: they fix the env's final error
        self.policy_seq = np.random.SeedSequence(GRAPH_SEED)

    def base_graph(self, outliers: bool) -> graph.PoseGraph:
        g = synth.generate(synth.GenSpec(self.size.robots, self.size.poses, seed=GRAPH_SEED))
        if outliers:
            g, _ = synth.inject_outliers(g, OUTLIER_FRACTION, GRAPH_SEED)
        return rigid_motion(g, np.random.default_rng(self.gauge_seq))

    def setup(self):
        raise NotImplementedError

    def reference(self, state) -> None:
        """Untimed work that the checks and quality numbers need."""

    def job(self, state):
        raise NotImplementedError

    def check(self, state, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> dict:
        """The small part of a checked job output that ``summary`` reads."""
        raise NotImplementedError

    def summary(self, state, digests) -> dict:
        """Workload-specific end-to-end numbers (name -> (value, unit))."""
        raise NotImplementedError


class AdmmWorkload(Workload):
    sizes = {"full": Size(4, 60), "tiny": Size(2, 12)}

    def setup(self):
        return {"graph": self.base_graph(outliers=False)}

    def reference(self, state):
        central, _ = refine.lm_refine(state["graph"])
        state["central_objective"] = graph.objective(central)

    def job(self, state):
        g = state["graph"]
        p = partition.partition(g, self.size.robots)
        res = consensus.admm_consensus(p)
        merged = partition.merge(res.partition, res.resolved)
        return {"partition": p, "admm": res, "merged": merged, "objective": graph.objective(merged)}

    def check(self, state, out):
        g, merged, res = state["graph"], out["merged"], out["admm"]
        failures = []
        if sorted(merged.vertices) != sorted(g.vertices):
            failures.append("merged vertex ids differ from the input")
        if merged.num_edges != g.num_edges:
            failures.append("merged edge count differs from the input")
        if not all(np.isfinite(v.estimate.as_vector()).all() for v in merged.vertices.values()):
            failures.append("merged graph has non-finite estimates")
        missing = set(out["partition"].separators) - set(res.resolved)
        if missing:
            failures.append(f"{len(missing)} separators unresolved")
        if not math.isfinite(out["objective"]):
            failures.append("merged objective is not finite")
        return failures

    def digest(self, out):
        return {"objective": out["objective"]}

    def summary(self, state, digests):
        obj = digests[0]["objective"]
        ref = state["central_objective"]
        return {
            "cost_ratio": (obj / ref, "ratio"),
            "gap_rel": ((obj - ref) / ref, "ratio"),
            "merged_objective": (obj, "cost"),
            "central_objective": (ref, "cost"),
        }


class LearnWorkload(Workload):
    sizes = {
        "full": Size(4, 100, episodes=4, encoder=encoder.EncoderConfig()),
        "tiny": Size(2, 15, episodes=1, encoder=TINY_ENCODER),
    }

    def setup(self):
        g = self.base_graph(outliers=True)
        e = env.PoseGraphEnv(g, self.size.robots)
        cfg = self.size.encoder
        params = encoder.init_encoder_params(cfg, np.random.default_rng(self.init_seq))
        return {"env": e, "cfg": cfg, "params": params}

    def job(self, state):
        e, cfg, params = state["env"], state["cfg"], state["params"]
        policy = np.random.default_rng(self.policy_seq)
        noise = np.random.default_rng(self.noise_seq)
        limit = np.array([e.delta_max_t, e.delta_max_t, e.delta_max_theta])
        episodes = []
        for _ in range(self.size.episodes):
            t0 = time.perf_counter()
            obs = e.reset()
            l0 = e.l0_global
            steps = 0
            done, info = False, {}
            while not done:
                actions = [
                    env.Action(int(policy.choice(np.flatnonzero(o.mask))), policy.uniform(-limit, limit))
                    if o.mask.any()
                    else None
                    for o in obs
                ]
                obs, _, done, info = e.step(actions)
                steps += 1
            episode_s = time.perf_counter() - t0
            l_err = graph.localization_error(e.current_graph())

            t1 = time.perf_counter()
            batch = encoder.make_batch([o.snapshot for o in obs], [o.meas for o in obs])
            _, latent, gates, _ = encoder.encoder_forward(
                params, cfg, batch, gate_noise=noise.uniform(size=batch.attr.shape[0])
            )
            loss = autodiff.add(autodiff.sum_(latent), encoder.l1_gate_penalty(gates, cfg.gate.l1_weight))
            loss.backward()
            backward_done = time.perf_counter()
            grads_ok = all(
                p.grad is not None and p.grad.shape == p.data.shape and np.isfinite(p.grad).all()
                for p in params.values()
            )
            t2 = time.perf_counter()
            for p in params.values():
                p.zero_grad()
            update_s = (backward_done - t1) + (time.perf_counter() - t2)
            episodes.append(
                {
                    "steps": steps,
                    "episode_s": episode_s,
                    "update_s": update_s,
                    "masks_empty": all(not o.mask.any() for o in obs),
                    "l0": l0,
                    "l_final": info.get("l_final"),
                    "l_err": l_err,
                    "grads_ok": grads_ok,
                }
            )
        return {"episodes": episodes}

    def check(self, state, out):
        failures = []
        for k, ep in enumerate(out["episodes"]):
            if not ep["masks_empty"]:
                failures.append(f"episode {k}: a mask is not empty at the end")
            if ep["l_final"] is None or not math.isclose(ep["l_final"], ep["l_err"], rel_tol=1e-9):
                failures.append(f"episode {k}: l_final {ep['l_final']} != localization_error {ep['l_err']}")
            if not ep["grads_ok"]:
                failures.append(f"episode {k}: a parameter gradient is missing, misshaped or non-finite")
        return failures

    def digest(self, out):
        return out

    def summary(self, state, digests):
        eps = [ep for d in digests for ep in d["episodes"]]
        return {
            "cost_ratio": (statistics.median(ep["l_final"] / ep["l0"] for ep in eps), "ratio"),
            "steps_per_s": (sum(ep["steps"] for ep in eps) / sum(ep["episode_s"] for ep in eps), "1/s"),
            "update_s": (statistics.median(ep["update_s"] for ep in eps), "s"),
        }


class CentralWorkload(Workload):
    sizes = {"full": Size(8, 250), "tiny": Size(2, 20)}

    def setup(self):
        g = self.base_graph(outliers=True)
        fixture = os.path.join(self.workdir, "central-input.g2o")
        g2o_io.save_g2o(g, fixture)
        return {"graph": g, "fixture": fixture, "output": os.path.join(self.workdir, "central-output.g2o")}

    def reference(self, state):
        state["initial_objective"] = graph.objective(state["graph"])

    def job(self, state):
        h = g2o_io.load_g2o(state["fixture"])
        partition.partition(h, self.size.robots)
        result, iterates = refine.lm_refine(h)
        obj = graph.objective(result)
        g2o_io.save_g2o(result, state["output"])
        return {"loaded": h, "result": result, "iterates": iterates, "objective": obj}

    def check(self, state, out):
        failures = [f"loaded graph: {d}" for d in graph_differences(out["loaded"], state["graph"])[:5]]
        obj = out["objective"]
        if not math.isfinite(obj) or obj > state["initial_objective"]:
            failures.append(f"final objective {obj} is not finite or exceeds the initial {state['initial_objective']}")
        reloaded = g2o_io.load_g2o(state["output"])
        failures += [f"saved result: {d}" for d in graph_differences(reloaded, out["result"])[:5]]
        return failures

    def digest(self, out):
        return {"objective": out["objective"], "lm_iters": len(out["iterates"])}

    def summary(self, state, digests):
        obj = digests[0]["objective"]
        return {
            "cost_ratio": (obj / state["initial_objective"], "ratio"),
            "final_objective": (obj, "cost"),
            "initial_objective": (state["initial_objective"], "cost"),
            "lm_iters": (digests[0]["lm_iters"], "count"),
        }


WORKLOADS = {"admm-4x60": AdmmWorkload, "learn-4x100": LearnWorkload, "central-8x250": CentralWorkload}
