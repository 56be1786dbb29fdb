"""Deterministic pruned weights for a tuning plan's workload.

The service binds a :class:`~repro.tune.planner.TuningPlan` to concrete
weight tensors.  Real deployments would load trained checkpoints; this repo
derives them the same way :class:`~repro.tune.measure.MeasuredRefiner`
derives its probe operands — a seeded unstructured mask at the plan's
density over seeded normal values — so the whole serving state is a pure
function of ``(plan, weight_seed)``.  Every kernel re-compresses the dense
masked tensor into its own format inside ``prepare`` (Shfl-BW falls back to
its deterministic degenerate row grouping when no witness permutation is
supplied), which keeps weight derivation kernel-agnostic.

:class:`ServingRuntime` is what the service executes against: the derived
weights plus one *prepared kernel handle* per served layer, so the
compression (and the content digest a cached ``prepare`` keys on) is paid
once per ``(plan, weight_seed)``, never per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan

__all__ = ["ServingRuntime", "derive_weights", "planned_runtime"]


def derive_weights(plan: TuningPlan, weight_seed: int) -> dict[str, np.ndarray]:
    """Seeded pruned weight tensors, one ``(M, K)`` array per planned layer.

    Layers are seeded independently (``weight_seed`` plus the assignment's
    position in the plan), so a weight tensor depends only on the plan and
    the seed — never on which subset of layers a worker happens to touch.
    """
    density = 1.0 - plan.sparsity
    model = PlannedModel(plan)
    weights: dict[str, np.ndarray] = {}
    for index, assignment in enumerate(plan.assignments):
        shape = model.layers[assignment.layer].gemm
        rng = np.random.default_rng([int(weight_seed), index])
        values = rng.normal(size=(shape.m, shape.k))
        mask = rng.random(size=(shape.m, shape.k)) < density
        weights[assignment.layer] = values * mask
    return weights


@dataclass(eq=False)
class ServingRuntime:
    """A plan's model, its derived weights and its prepared kernel handles.

    Each layer's weight is compressed into its assigned kernel's format on
    first use with the kernel's plain ``prepare`` and the handle is kept in
    ``handles``.  The kernel's own ``prepare_cached`` LRU is bypassed, so
    the handle is held once, and no batch pays the weight digest that LRU
    keys on.
    """

    model: PlannedModel
    weights: dict[str, np.ndarray]
    handles: dict[str, object] = field(default_factory=dict, init=False)

    def execute(self, layer: str, activations: np.ndarray) -> np.ndarray:
        """``weights[layer] @ activations`` through the prepared handle."""
        # Calls go through ``kernel_for(...)`` directly: a local ``kernel``
        # receiver would let the purity check fan ``.run`` out to every
        # method of that name, the clocked ``SweepRunner.run`` included.
        handle = self.handles.get(layer)
        if handle is None:
            handle = self.model.kernel_for(layer).prepare(self.weights[layer])
            self.handles[layer] = handle
        return self.model.kernel_for(layer).run(handle, activations)


def planned_runtime(plan: TuningPlan, weight_seed: int) -> ServingRuntime:
    """The executable runtime of a plan (layers are prepared on first use)."""
    return ServingRuntime(PlannedModel(plan), derive_weights(plan, weight_seed))
