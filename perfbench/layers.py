"""Which ``dpgo`` functions the traced run wraps, and the per-layer metrics.

``PER_LAYER`` lists every metric a traced run reports, in the order of
``BENCHMARK.json``. A layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics

from dpgo import consensus, env, g2o_io, geometry, graph, partition, refine, synth
from dpgo.nn import autodiff, encoder

PER_LAYER = [
    ("synth.generate_s", "s"),
    ("synth.inject_outliers_s", "s"),
    ("g2o_io.load_s", "s"),
    ("g2o_io.save_s", "s"),
    ("g2o_io.records", "count"),
    ("partition.partition_s", "s"),
    ("partition.merge_s", "s"),
    ("partition.cut_edges", "count"),
    ("partition.separators", "count"),
    ("partition.max_block_vertices", "count"),
    ("refine.lm_calls", "count"),
    ("refine.lm_s", "s"),
    ("refine.lm_iters", "count"),
    ("refine.lm_rejected", "count"),
    ("refine.lm_accept_ratio", "ratio"),
    ("refine.lm_s_per_iter", "s"),
    ("refine.lm_at_cap", "count"),
    ("refine.splu_calls", "count"),
    ("refine.splu_s", "s"),
    ("consensus.rounds", "count"),
    ("consensus.converged", "count"),
    ("consensus.final_disagreement", "norm"),
    ("consensus.s_per_round", "s"),
    ("consensus.wmean_s", "s"),
    ("consensus.self_s", "s"),
    ("graph.objective_s", "s"),
    ("graph.localization_error_s", "s"),
    ("geometry.wrap_angle_calls", "count"),
    ("env.build_s", "s"),
    ("env.steps", "count"),
    ("env.step_p50_ms", "ms"),
    ("env.step_p99_ms", "ms"),
    ("env.current_graph_s", "s"),
    ("nn.encoder.make_batch_s", "s"),
    ("nn.encoder.forward_s", "s"),
    ("nn.encoder.edges", "count"),
    ("nn.encoder.edge_weight_bytes", "bytes"),
    ("nn.autodiff.backward_s", "s"),
    ("nn.autodiff.params", "count"),
    ("job.gap_rel", "ratio"),
    ("job.final_objective", "cost"),
    ("job.steps_per_s", "1/s"),
    ("job.update_s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
]


def _observe_partition(tracer, args, kwargs, result):
    g = args[0]
    tracer.set("partition.cut_edges", sum(result.owner[e.from_id] != result.owner[e.to_id] for e in g.edges))
    tracer.set("partition.separators", len(result.separators))
    tracer.set("partition.max_block_vertices", max(s.num_vertices for s in result.subgraphs))


def _observe_lm(tracer, args, kwargs, result):
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or refine.LMConfig()
    iters = len(result.iterates)
    tracer.add("refine.lm_calls")
    tracer.add("refine.lm_iters", iters)
    tracer.add("refine.lm_rejected", sum(not it.accepted for it in result.iterates))
    tracer.add("refine.lm_at_cap", int(iters >= cfg.max_iters))


def _observe_admm(tracer, args, kwargs, result):
    tracer.set("consensus.rounds", result.iterations)
    tracer.set("consensus.converged", int(result.converged))
    tracer.set("consensus.final_disagreement", result.disagreement[-1])


def _observe_load(tracer, args, kwargs, result):
    tracer.set("g2o_io.records", result.num_vertices + result.num_edges)


def _observe_forward(tracer, args, kwargs, result):
    params, cfg, batch = args[:3]
    n_edges = batch.attr.shape[0]
    dims = cfg.layer_dims
    tracer.set("nn.encoder.edges", n_edges)
    # computed from array shapes: each layer materializes an E x d_out x d_in float64 tensor
    tracer.set("nn.encoder.edge_weight_bytes", sum(n_edges * dims[l + 1] * dims[l] * 8 for l in range(cfg.n_layers)))
    tracer.set("nn.autodiff.params", sum(p.data.size for p in params.values()))


WRAP_ANGLE_CALLERS = (geometry, consensus, graph, partition, refine, synth)


def instrument(tracer) -> None:
    """Install every wrapper; ``tracer.remove()`` takes them all out again."""
    tracer.span(synth, "generate", "synth.generate")
    tracer.span(synth, "inject_outliers", "synth.inject_outliers")
    tracer.span(g2o_io, "load_g2o", "g2o_io.load_g2o", _observe_load)
    tracer.span(g2o_io, "save_g2o", "g2o_io.save_g2o")
    tracer.span(partition, "partition", "partition.partition", _observe_partition)
    tracer.span(env, "partition", "partition.partition", _observe_partition)
    tracer.span(partition, "merge", "partition.merge")
    tracer.span(refine, "lm_refine", "refine.lm_refine")
    tracer.span(refine, "lm_refine_full", "refine.lm_refine_full", _observe_lm)
    tracer.span(consensus, "lm_refine_full", "refine.lm_refine_full", _observe_lm)
    tracer.span(refine.spla, "splu", "refine.splu")
    tracer.span(consensus, "admm_consensus", "consensus.admm_consensus", _observe_admm)
    tracer.span(consensus, "information_weighted_mean", "consensus.information_weighted_mean")
    tracer.span(graph, "objective", "graph.objective")
    tracer.span(graph, "localization_error", "graph.localization_error")
    tracer.span(env.PoseGraphEnv, "__init__", "env.PoseGraphEnv")
    tracer.span(env.PoseGraphEnv, "step", "env.step")
    tracer.span(env.PoseGraphEnv, "current_graph", "env.current_graph")
    tracer.span(encoder, "make_batch", "nn.encoder.make_batch")
    tracer.span(encoder, "encoder_forward", "nn.encoder.encoder_forward", _observe_forward)
    tracer.span(autodiff.Tensor, "backward", "nn.autodiff.backward")
    # about 400k calls per admm-4x60 job: a span each would distort the run
    for module in WRAP_ANGLE_CALLERS:
        tracer.count(module, "wrap_angle", "geometry.wrap_angle")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _percentile(xs, q: float) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def layer_metrics(tracer, setup_phases, job_phases, summary, traced_job_s, untraced_job_s) -> dict:
    """Per-layer metrics: timings are medians over phases of per-phase totals;
    counts come from the first traced job (or its set-up) and repeat exactly."""

    def job_s(name):
        return _median([tracer.total(name, ph) for ph in job_phases])

    def setup_s(name):
        return _median([tracer.total(name, ph) for ph in setup_phases])

    first_job, first_setup = job_phases[0], setup_phases[0]

    def value(name):
        if (first_job, name) in tracer.values:
            return tracer.values[(first_job, name)]
        return tracer.values.get((first_setup, name), 0)

    partition_in_job = any(tracer.durations("partition.partition", ph) for ph in job_phases)
    lm_s, lm_iters = job_s("refine.lm_refine_full"), value("refine.lm_iters")
    rounds = value("consensus.rounds")
    steps_ms = [1e3 * d for ph in job_phases for d in tracer.durations("env.step", ph)]
    m = {
        "synth.generate_s": setup_s("synth.generate"),
        "synth.inject_outliers_s": setup_s("synth.inject_outliers"),
        "g2o_io.load_s": job_s("g2o_io.load_g2o"),
        "g2o_io.save_s": job_s("g2o_io.save_g2o"),
        "g2o_io.records": value("g2o_io.records"),
        "partition.partition_s": (job_s if partition_in_job else setup_s)("partition.partition"),
        "partition.merge_s": job_s("partition.merge"),
        "partition.cut_edges": value("partition.cut_edges"),
        "partition.separators": value("partition.separators"),
        "partition.max_block_vertices": value("partition.max_block_vertices"),
        "refine.lm_calls": value("refine.lm_calls"),
        "refine.lm_s": lm_s,
        "refine.lm_iters": lm_iters,
        "refine.lm_rejected": value("refine.lm_rejected"),
        "refine.lm_accept_ratio": (lm_iters - value("refine.lm_rejected")) / lm_iters if lm_iters else 0.0,
        "refine.lm_s_per_iter": lm_s / lm_iters if lm_iters else 0.0,
        "refine.lm_at_cap": value("refine.lm_at_cap"),
        "refine.splu_calls": len(tracer.durations("refine.splu", first_job)),
        "refine.splu_s": job_s("refine.splu"),
        "consensus.rounds": rounds,
        "consensus.converged": value("consensus.converged"),
        "consensus.final_disagreement": value("consensus.final_disagreement"),
        "consensus.s_per_round": job_s("consensus.admm_consensus") / rounds if rounds else 0.0,
        "consensus.wmean_s": job_s("consensus.information_weighted_mean"),
        "consensus.self_s": _median([tracer.self_time("consensus.admm_consensus", ph) for ph in job_phases]),
        "graph.objective_s": job_s("graph.objective"),
        "graph.localization_error_s": job_s("graph.localization_error"),
        "geometry.wrap_angle_calls": value("geometry.wrap_angle"),
        "env.build_s": setup_s("env.PoseGraphEnv"),
        "env.steps": len(tracer.durations("env.step", first_job)),
        "env.step_p50_ms": _percentile(steps_ms, 0.50),
        "env.step_p99_ms": _percentile(steps_ms, 0.99),
        "env.current_graph_s": job_s("env.current_graph"),
        "nn.encoder.make_batch_s": job_s("nn.encoder.make_batch"),
        "nn.encoder.forward_s": job_s("nn.encoder.encoder_forward"),
        "nn.encoder.edges": value("nn.encoder.edges"),
        "nn.encoder.edge_weight_bytes": value("nn.encoder.edge_weight_bytes"),
        "nn.autodiff.backward_s": job_s("nn.autodiff.backward"),
        "nn.autodiff.params": value("nn.autodiff.params"),
        "job.gap_rel": summary.get("gap_rel", (0.0, ""))[0],
        "job.final_objective": summary.get("final_objective", (0.0, ""))[0],
        "job.steps_per_s": summary.get("steps_per_s", (0.0, ""))[0],
        "job.update_s": summary.get("update_s", (0.0, ""))[0],
        "trace.job_s": _median(traced_job_s),
        "trace.overhead_s": _median(traced_job_s) - _median(untraced_job_s),
    }
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
