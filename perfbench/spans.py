"""Per-layer tracing of msid from outside the package.

The tracer replaces public functions of msid with timing wrappers at the
place where msid looks them up (a module global, a class attribute, or a
field of the model object), inside the benchmark's own worker process
only.  Spans are aggregated in memory as they close: per span name it
keeps the call count, the total time and the self time, which is the
span's duration minus the part covered by its child spans.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

# Model fields that hold Jacobian callables.  ``jac_f_x_entry`` is left out on
# purpose: the masked path calls it once per nonzero entry, and its cost is
# reported inside ``structure.masked_jac_f_x`` rather than traced per entry.
JACOBIAN_FIELDS = ("jac_f_x", "jac_f_theta", "jac_g_x",
                   "jac_f_x_batch", "jac_f_theta_batch", "jac_g_x_batch")

PENALTY_METHODS = ("step_value", "step_grad_x", "step_grad_theta",
                   "param_value", "param_grad", "total_value")


class Tracer:
    """Aggregated spans of one worker process."""

    def __init__(self):
        self.spans = {}            # name -> [calls, total_ns, self_ns]
        self._open = [0]           # child time of each open span; [0] is the root
        self.epoch_starts = []     # perf_counter_ns at each optimizer rollout
        self.chain_applications = 0

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span called ``name``.

        ``after(result)`` runs on return, outside the timed interval of the
        span.
        """
        stats = self.spans.setdefault(name, [0, 0, 0])
        opened = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = opened.pop()
                opened[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def wrap_model(self, model):
        """A copy of ``model`` whose Jacobian callables are traced."""
        fields = {name: self.wrap("model.jacobians", getattr(model, name))
                  for name in JACOBIAN_FIELDS if getattr(model, name) is not None}
        return dataclasses.replace(model, **fields)

    def install(self):
        """Wrap the layer boundaries of the imported ``msid`` modules."""
        cli, config, gradient, model, optimizer, penalties, structure, systems = (
            importlib.import_module(f"msid.{name}") for name in
            ("cli", "config", "gradient", "model", "optimizer", "penalties",
             "structure", "systems"))

        def count_chain(report):
            self.chain_applications += report.chain_applications

        self.patch(optimizer, "rollout", "model.rollout")
        install_epoch_clock(optimizer, self.epoch_starts)
        self.patch(optimizer, "gradient", "gradient.gradient", after=count_chain)
        self.patch(optimizer, "adam_step", "optimizer.adam_step")
        self.patch(gradient, "gamma_terms", "gradient.gamma_terms")
        self.patch(gradient, "masked_jac_f_x", "structure.masked_jac_f_x")
        self.patch(gradient, "sparse_chain_apply", "structure.sparse_chain_apply")
        self.patch(systems, "euler_step", "systems.euler_step")
        self.patch(config, "generate_dataset", "systems.generate_dataset")
        self.patch(cli, "write_history_csv", "cli.write_history_csv")
        # numeric_jacobian is imported by name into three modules; the model's
        # central-difference fallback looks it up in msid.model.
        numeric = self.wrap("model.numeric_jacobian", model.numeric_jacobian)
        for module in (model, penalties, structure):
            module.numeric_jacobian = numeric
        for method in PENALTY_METHODS:
            self.patch(penalties.PenaltySpec, method, "penalties")
        from_json = config.RunConfig.__dict__["from_json"].__func__
        config.RunConfig.from_json = classmethod(self.wrap("config.load", from_json))
        build_model = config.build_model
        config.build_model = lambda cfg: self.wrap_model(build_model(cfg))


def install_epoch_clock(optimizer, starts: list) -> list:
    """Make every rollout call of the optimizer append ``perf_counter_ns()``
    to ``starts`` (one mark per epoch or rejected step); returns ``starts``.

    The clock costs one extra Python call per epoch, so untraced jobs use it
    too: it gives the per-epoch times that the end-to-end metrics are taken
    from.
    """
    rollout = optimizer.rollout
    clock = time.perf_counter_ns

    @functools.wraps(rollout)
    def marked(*args, **kwargs):
        starts.append(clock())
        return rollout(*args, **kwargs)

    optimizer.rollout = marked
    return starts


def epoch_ms(starts: list) -> list:
    """Duration of each full epoch: from one optimizer rollout to the next.
    (The last rollout of a run starts a final evaluation without an update,
    so it is not an epoch of its own.)"""
    return [(b - a) * 1e-6 for a, b in zip(starts, starts[1:])]
