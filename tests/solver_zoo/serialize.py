"""Seeded patrol MILPs for the solver zoo, some frozen as ``.npz`` files.

:func:`patrol_problem` builds a small park with non-concave sigmoid
utilities, so the SOS2 segment binaries genuinely bind. Two of these
problems are frozen under ``instances/``: the objective vector and
constraint system that :meth:`~repro.planning.milp.PatrolMILP.build_structure`
assembled when they were written. ``test_zoo.py`` checks that a fresh
build still reproduces them, array for array.

Regenerate them only after a deliberate change to the formulation::

    PYTHONPATH=src python -m tests.solver_zoo.serialize

which rewrites ``tests/solver_zoo/instances/*.npz`` deterministically
(fixed seeds, no timestamps). Optima are *not* stored here; they are
pinned literally in ``test_zoo.py`` so a regeneration cannot move them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.geo import Grid
from repro.planning.graph import TimeUnrolledGraph
from repro.planning.milp import PatrolMILP
from repro.planning.pwl import PiecewiseLinear

INSTANCE_DIR = Path(__file__).resolve().parent / "instances"

#: Seeds of the frozen 4x4, horizon-4 instances.
FROZEN_SEEDS = (7, 23)


@dataclass(frozen=True)
class FrozenInstance:
    """One problem (P): ``min c @ x`` s.t. ``row_lb <= A x <= row_ub``."""

    c: np.ndarray
    matrix: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    binary_mask: np.ndarray


def instance_name(seed: int, height: int = 4, width: int = 4,
                  horizon: int = 4) -> str:
    return f"patrol_{height}x{width}_h{horizon}_seed{seed}"


def patrol_problem(
    seed: int,
    height: int = 4,
    width: int = 4,
    horizon: int = 4,
    n_breakpoints: int = 4,
    n_patrols: int = 2,
) -> tuple[PatrolMILP, dict[int, PiecewiseLinear]]:
    """A seeded patrol MILP and its non-concave per-cell utilities."""
    rng = np.random.default_rng(seed)
    grid = Grid.rectangular(height, width)
    graph = TimeUnrolledGraph(grid, source_cell=0, horizon=horizon)
    milp = PatrolMILP(graph, n_patrols=n_patrols)
    xs = np.linspace(0.0, milp.max_coverage, n_breakpoints)
    utilities = {}
    for v in graph.reachable_cells:
        # Sigmoid detection curves anchored at zero are non-concave, so
        # the SOS2 segment binaries genuinely bind.
        scale = rng.random()
        mid = xs[-1] * (0.3 + 0.4 * rng.random())
        raw = 1.0 / (1.0 + np.exp(-1.5 * (xs - mid)))
        utilities[int(v)] = PiecewiseLinear(xs, scale * (raw - raw[0]))
    return milp, utilities


def freeze(
    milp: PatrolMILP, utilities: dict[int, PiecewiseLinear]
) -> FrozenInstance:
    """The full SOS2 model of one problem, as HiGHS receives it."""
    structure = milp.build_structure(utilities)
    return FrozenInstance(
        c=milp.objective_vector(structure, utilities),
        matrix=sparse.csr_matrix(structure.matrix),
        row_lb=structure.row_lb,
        row_ub=structure.row_ub,
        binary_mask=structure.integrality.astype(bool),
    )


def save_instance(inst: FrozenInstance, path: Path) -> None:
    """Write a :class:`FrozenInstance` to ``path`` as a compressed ``.npz``."""
    csr = sparse.csr_matrix(inst.matrix)
    np.savez_compressed(
        path,
        c=np.asarray(inst.c, dtype=float),
        data=csr.data,
        indices=csr.indices,
        indptr=csr.indptr,
        shape=np.asarray(csr.shape, dtype=np.int64),
        row_lb=np.asarray(inst.row_lb, dtype=float),
        row_ub=np.asarray(inst.row_ub, dtype=float),
        binary_mask=np.asarray(inst.binary_mask, dtype=bool),
    )


def load_instance(path: Path) -> FrozenInstance:
    """Load a frozen instance (other keys in the file are ignored)."""
    with np.load(path, allow_pickle=False) as z:
        return FrozenInstance(
            c=z["c"],
            matrix=sparse.csr_matrix(
                (z["data"], z["indices"], z["indptr"]),
                shape=tuple(z["shape"]),
            ),
            row_lb=z["row_lb"],
            row_ub=z["row_ub"],
            binary_mask=z["binary_mask"],
        )


def load_all() -> dict[str, FrozenInstance]:
    """Load every frozen instance under :data:`INSTANCE_DIR`."""
    return {
        path.stem: load_instance(path)
        for path in sorted(INSTANCE_DIR.glob("*.npz"))
    }


def regenerate() -> list[Path]:
    """Rewrite every frozen instance; returns the written paths."""
    INSTANCE_DIR.mkdir(parents=True, exist_ok=True)
    written = []
    for seed in FROZEN_SEEDS:
        path = INSTANCE_DIR / f"{instance_name(seed)}.npz"
        save_instance(freeze(*patrol_problem(seed)), path)
        written.append(path)
    return written


if __name__ == "__main__":
    for p in regenerate():
        print(p)
