"""Per-layer tracing, installed from outside the package.

``Tracer.install`` wraps every public function and public method of the
csve modules (the layers), plus the few private functions the metrics
need, and patches each wrapped name wherever a layer looks it up (for
example ``conservative`` binds ``exact_policy_evaluation`` from
``tabular``).  Each call records, keyed by the benchmark stage it ran in,
its count, inclusive time and self time (inclusive time minus the time of
wrapped calls it made).  A few wrappers also count work (rows through an
MLP, env steps, sweeps); ``workload.per_layer`` turns the records into the
per-layer figures.  Records are kept in memory and written out once.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tabular", "conservative", "theory", "nn", "dynamics", "agent", "envs",
          "data", "cli")
PRIVATE = {"agent": ("_v_loss_impl",), "theory": ("_rollout_tabular_dataset",)}

SUITE_RUNNERS = {
    "contraction": "theory.run_contraction_trials",
    "operator_equivalence": "theory.run_operator_equivalence_trials",
    "value_lower_bound_data": "theory.run_lower_bound_data_trials",
    "gap_expansion": "theory.run_gap_expansion_trials",
    "argmax_consistency": "theory.run_argmax_consistency_trials",
    "safe_improvement": "theory.run_safe_improvement_trials",
    "interpolation": "theory.run_interpolation_trials",
}

# Names each metric family reads; a name that is gone is named on stderr and
# on the info line, and the metrics that read it read 0.
NEEDS = {
    "nn": ("nn.Mlp.forward_cache", "nn.Mlp.backward", "nn.adam_step", "nn.polyak_update"),
    "dynamics.train": ("dynamics.EnsembleDynamicsModel.sample_next_batch",
                       "dynamics.EnsembleDynamicsModel.mean_prediction_with_action_grad"),
    "dynamics.fit": ("dynamics.train_ensemble",),
    "agent.csve": ("agent._v_loss_impl", "agent.q_loss", "agent.explore_policy_loss",
                   "agent.awr_policy_loss", "agent.train_agent", "agent.save_agent"),
    "agent.cql": ("agent.cql_critic_loss", "agent.cql_actor_loss"),
    "envs": ("envs.PointMass2d.step", "envs.rollout", "envs.evaluate_policy"),
    "data": ("data.save_dataset", "data.load_dataset"),
    "theory": (*SUITE_RUNNERS.values(), "theory.run_lower_bound_d_trials",
               "theory.make_instance", "theory._rollout_tabular_dataset",
               "tabular.sample_dataset", "conservative.csve_fixed_point"),
}


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # (stage, name) -> calls, incl, self
        self.counts = Counter()                          # (stage, counter) -> value
        self.active = Counter()                          # layer -> open spans
        self.open_eval = 0                               # open evaluate_policy spans
        self.instances = defaultdict(set)                # stage -> make_instance args
        self.wrapped: set[str] = set()
        self._child = []
        self._undo = []                                  # (owner, name, original)
        self.missing: list[str] = []                     # needed names not found

    # -- installing ----------------------------------------------------------
    def install(self, modules: dict) -> list[str]:
        """Wrap the layers' functions and methods; returns the needed names
        that no longer exist.  ``uninstall`` puts the originals back."""
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                        continue
                    wrapper = self._wrap(layer, f"{layer}.{name}", obj)
                    for other in modules.values():
                        if vars(other).get(name) is obj:
                            self._patch(other, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        needed = {n for names in NEEDS.values() for n in names}
        self.missing = sorted(needed - self.wrapped)
        return self.missing

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, type(raw)(self._wrap(layer, qual, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(layer, qual, raw))

    def _wrap(self, layer, qual, fn):
        self.wrapped.add(qual)
        hook = HOOKS.get(qual)
        is_eval = qual == "envs.evaluate_policy"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.active[layer] += 1
            tracer.open_eval += is_eval
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = tracer._child.pop()
                tracer.active[layer] -= 1
                tracer.open_eval -= is_eval
                if tracer._child:
                    tracer._child[-1] += elapsed
                rec = tracer.stats[(tracer.stage, qual)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if hook is not None:
                result = hook(tracer, args, kwargs, result, elapsed)
            return result

        return traced

    # -- reading ---------------------------------------------------------------
    def calls(self, stages, name) -> int:
        return sum(self.stats[(s, name)][0] for s in stages if (s, name) in self.stats)

    def incl(self, stages, name) -> float:
        return sum(self.stats[(s, name)][1] for s in stages if (s, name) in self.stats)

    def self_time(self, stages, name) -> float:
        return sum(self.stats[(s, name)][2] for s in stages if (s, name) in self.stats)

    def count(self, stages, key) -> float:
        return sum(self.counts[(s, key)] for s in stages)

    def dump(self) -> dict:
        return {
            "spans": [{"stage": s, "name": n, "calls": c, "incl_s": i, "self_s": x}
                      for (s, n), (c, i, x) in sorted(self.stats.items())],
            "counts": [{"stage": s, "name": n, "value": v}
                       for (s, n), v in sorted(self.counts.items())],
        }


# ---------------------------------------------------------------------------
# Hooks: work counts taken where the work happens
# ---------------------------------------------------------------------------

def _mlp_macs(mlp) -> int:
    sizes = mlp.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _forward(tracer, args, kwargs, result, elapsed):
    mlp, x = args[0], args[1]
    rows = np.shape(x)[0] if np.ndim(x) > 1 else 1
    tracer.counts[(tracer.stage, "nn.flop")] += 2 * rows * _mlp_macs(mlp)
    if tracer.active["dynamics"]:
        tracer.counts[(tracer.stage, "dynamics.member_passes")] += 1
    return result


def _backward(tracer, args, kwargs, result, elapsed):
    mlp, cache = args[0], args[1]
    rows = cache[0][0].shape[0]
    # weight gradient plus input cotangent: two matmuls per layer
    tracer.counts[(tracer.stage, "nn.flop")] += 4 * rows * _mlp_macs(mlp)
    if tracer.active["dynamics"]:
        tracer.counts[(tracer.stage, "dynamics.member_passes")] += 1
    return result


def _action_grad(tracer, args, kwargs, result, elapsed):
    next_states, rewards, pullback = result
    return next_states, rewards, tracer._wrap("dynamics", "dynamics.action_grad_pullback",
                                              pullback)


def _v_loss(tracer, args, kwargs, result, elapsed):
    bundle = args[0]
    if kwargs.get("penalty_active", args[5] if len(args) > 5 else False) and bundle.alpha > 0:
        tracer.counts[(tracer.stage, "agent.penalty_active_steps")] += 1
    return result


def _env_step(tracer, args, kwargs, result, elapsed):
    tracer.counts[(tracer.stage, "envs.steps")] += 1
    if tracer.open_eval:
        tracer.counts[(tracer.stage, "envs.anchor_steps")] += 1
    return result


def _lower_bound_d(tracer, args, kwargs, result, elapsed):
    exact = kwargs.get("zero_error", args[2] if len(args) > 2 else False)
    suite = "value_lower_bound_d_exact" if exact else "value_lower_bound_d"
    tracer.counts[(tracer.stage, f"theory.{suite}_s")] += elapsed
    return result


def _sample_dataset(tracer, args, kwargs, result, elapsed):
    tracer.counts[(tracer.stage, "tabular.sampled_transitions")] += result.num_transitions
    return result


def _fixed_point(tracer, args, kwargs, result, elapsed):
    tracer.counts[(tracer.stage, "conservative.sweeps")] += result[1]
    return result


def _make_instance(tracer, args, kwargs, result, elapsed):
    from csve import theory

    bound = inspect.signature(theory.make_instance).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.instances[tracer.stage].add(tuple(bound.arguments.values()))
    return result


HOOKS = {
    "nn.Mlp.forward_cache": _forward,
    "nn.Mlp.backward": _backward,
    "dynamics.EnsembleDynamicsModel.mean_prediction_with_action_grad": _action_grad,
    "agent._v_loss_impl": _v_loss,
    "envs.PointMass2d.step": _env_step,
    "theory.run_lower_bound_d_trials": _lower_bound_d,
    "tabular.sample_dataset": _sample_dataset,
    "conservative.csve_fixed_point": _fixed_point,
    "theory.make_instance": _make_instance,
}
