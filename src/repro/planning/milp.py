"""The patrol-planning MILP (problem (P), Section VI-B).

Decision variables:

* ``f_e`` — flow on each edge of the time-unrolled graph (continuous; one
  unit of flow = the defender's mixed strategy over patrol routes);
* ``lambda_{v,j}`` — PWL convex-combination weights per cell and breakpoint;
* ``z_{v,s}`` — binary segment selectors enforcing the SOS2 condition (the
  robust objective is generally non-concave, so segment binaries are needed
  for a correct PWL encoding).

Constraints: unit flow out of the source and into the sink, conservation at
interior nodes, coverage linking ``c_v = K * (inflow(v) + [v = source])``
expressed through the lambda representation, and the SOS2 adjacency rows.
Solved with ``scipy.optimize.milp`` (HiGHS), the only MILP backend.

Three structural optimisations keep repeated solves cheap:

* **Model-structure reuse** — everything except the objective row (the
  sparse constraint matrix, row bounds, integrality) depends only on the
  graph and the PWL breakpoints, not on the utility *values*. A beta sweep
  changes only the ``ys``, so :meth:`PatrolMILP.build_structure` caches the
  assembled :class:`MILPStructure` and re-solves swap in a fresh objective
  vector instead of rebuilding the matrix.
* **LP fast path** — when every per-cell utility is concave
  (:meth:`~repro.planning.pwl.PiecewiseLinear.is_concave`), the lambda
  relaxation is exact: a maximising LP never pays for choosing
  non-adjacent breakpoints, so the ``z`` binaries and SOS2 rows are dropped
  entirely and the problem solves as a pure LP.
* **Certified envelope fast path** — fine PWL sampling of the step-like
  iWare-E effort response produces *mildly* non-concave utilities, which
  used to cliff every solve back to the full SOS2 MILP (the Fig. 9
  25-segment spike). In ``mode="auto"``, non-concave utilities are first
  relaxed to their least concave majorants
  (:meth:`~repro.planning.pwl.PiecewiseLinear.concave_envelope`) and solved
  as a pure LP. The LP optimum is a valid upper bound; evaluating the *true*
  utilities at the returned coverage gives a lower bound — when the two
  agree to within ``envelope_gap`` (relative; default 1%, far inside the PWL
  discretisation error this model already carries) the solution is accepted
  with a certificate (``method="lp-envelope"``, certified gap recorded in
  ``MILPSolution.bound_gap``). Otherwise the few cells whose envelope gap
  was actually realised get their ``z`` binaries back and the mixed model is
  re-solved (``method="milp-partial"``); only if the certificate still fails
  does the full MILP run. Every accepted solution reports the true (not
  envelope) objective value. ``envelope_gap=0`` tightens the certificate to
  ``mip_gap`` — the same optimality guarantee the full MILP itself provides.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, Bounds, milp

from repro.exceptions import ConfigurationError, InfeasibleError, PlanningError
from repro.planning.graph import TimeUnrolledGraph
from repro.planning.pwl import PiecewiseLinear, StackedPWL
from repro.runtime.concurrency import thread_shared

#: Accepted values for the ``mode`` argument of :meth:`PatrolMILP.solve`.
SOLVER_MODES = ("auto", "lp", "milp")


@dataclass
class MILPStructure:
    """Objective-independent part of one problem (P) instance.

    Everything here is a function of the graph and the PWL *breakpoints*
    only — utility values enter solely through the objective vector — so a
    structure can be assembled once and reused across beta sweeps.

    Attributes
    ----------
    matrix, row_lb, row_ub, integrality:
        The constraint system (``lp_mode`` structures have all-continuous
        integrality and no SOS2 rows).
    n_vars:
        Total variable count: the edge flows, then one lambda block per
        reachable cell in ascending id order, then the ``z`` blocks.
    lp_mode:
        True when every ``z`` binary was dropped (concave fast path).
    binary_cells:
        Cells that carry ``z`` binaries; ``None`` means all of them (the
        classic MILP). The certified envelope path re-solves with binaries
        on just the offending cells.
    """

    matrix: sparse.csc_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    integrality: np.ndarray
    n_vars: int
    lp_mode: bool
    binary_cells: tuple[int, ...] | None = None


@dataclass
class MILPSolution:
    """Result of one patrol-planning solve.

    Attributes
    ----------
    objective_value:
        Total PWL utility of the optimal coverage.
    coverage:
        ``(n_cells,)`` optimal patrol effort per park cell (km/period).
    edge_flows:
        ``(n_edges,)`` flow on each time-unrolled edge (unit total).
    status:
        Solver status string.
    method:
        ``"lp"`` when the concave fast path solved the instance as a pure
        LP, ``"lp-envelope"`` / ``"milp-partial"`` when the certified
        envelope path accepted a relaxed solve (objective_value is the
        *true* utility of the coverage), and ``"milp"`` for the full SOS2
        formulation.
    bound_gap:
        Relative optimality gap of the returned solution. On the certified
        envelope paths it is the relaxation's upper bound minus the
        realised utility, over the bound (at most
        ``max(mip_gap, envelope_gap)``); on models with binaries it is the
        gap HiGHS reports (at most ``mip_gap`` when the solve finished,
        larger when it stopped early, e.g. at ``time_limit``). Zero on the
        pure-LP path.
    """

    objective_value: float
    coverage: np.ndarray
    edge_flows: np.ndarray
    status: str
    method: str = "milp"
    bound_gap: float = 0.0


@thread_shared
class PatrolMILP:
    """Builder/solver for problem (P) on one patrol post.

    The builder is ``@thread_shared``: its structure cache mutates under
    ``self._lock``, so one post's planner can serve concurrent solves
    (beta sweeps fanning out over request threads reuse one cached
    constraint matrix; racing cold builds are deduplicated on insert).

    Parameters
    ----------
    graph:
        Time-unrolled patrol graph for the post.
    n_patrols:
        K — number of patrols per period; scales flow into km of coverage.
    time_limit:
        HiGHS wall-clock limit in seconds.
    mip_gap:
        Relative optimality gap at which HiGHS may stop.
    envelope_gap:
        Acceptance tolerance (relative) of the certified envelope fast path
        in ``mode="auto"``: a relaxed solve is accepted when its valid
        upper bound is within ``max(mip_gap, envelope_gap)`` of the
        realised utility. The default 1% sits far inside the PWL
        discretisation error of the model itself; 0 tightens the
        certificate to ``mip_gap``, the same guarantee the full SOS2 MILP
        provides.
    """

    def __init__(
        self,
        graph: TimeUnrolledGraph,
        n_patrols: int = 4,
        time_limit: float = 60.0,
        mip_gap: float = 1e-4,
        envelope_gap: float = 1e-2,
    ):
        if n_patrols < 1:
            raise ConfigurationError(f"n_patrols must be >= 1, got {n_patrols}")
        if envelope_gap < 0:
            raise ConfigurationError(
                f"envelope_gap must be >= 0, got {envelope_gap}"
            )
        self.graph = graph
        self.n_patrols = int(n_patrols)
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.envelope_gap = envelope_gap
        # Mutated only under self._lock (the @thread_shared contract, RP004).
        self._lock = threading.RLock()
        self._structures: dict[tuple, MILPStructure] = {}
        self._structure_hits = 0
        self._structure_misses = 0

    @property
    def structure_hits(self) -> int:
        """Structure-cache hits so far (read-only)."""
        return self._structure_hits

    @property
    def structure_misses(self) -> int:
        """Structure-cache misses (i.e. assembled systems) so far (read-only)."""
        return self._structure_misses

    # ------------------------------------------------------------------
    @property
    def max_coverage(self) -> float:
        """Coverage if every patrol spent every step in one cell: T*K."""
        return float(self.graph.horizon * self.n_patrols)

    def _stack(
        self, utilities: dict[int, PiecewiseLinear] | StackedPWL
    ) -> StackedPWL:
        """``utilities`` as one row per reachable cell, domains checked."""
        reachable = self.graph.reachable_cells
        if isinstance(utilities, StackedPWL):
            cells = utilities.cells
        else:
            cells = np.array(sorted(utilities), dtype=int)
        if not np.array_equal(cells, reachable):
            raise ConfigurationError(
                "utilities must cover exactly the reachable cells; unreachable: "
                f"{np.setdiff1d(cells, reachable)[:5].tolist()}, missing: "
                f"{np.setdiff1d(reachable, cells)[:5].tolist()}"
            )
        if not isinstance(utilities, StackedPWL):
            utilities = StackedPWL.from_dict(utilities)
        xs = utilities.xs
        bad = (xs[:, 0] > 1e-9) | (xs[:, -1] < self.max_coverage - 1e-9)
        if bad.any():
            row = int(np.argmax(bad))
            raise ConfigurationError(
                f"cell {cells[row]}: PWL domain must span [0, T*K="
                f"{self.max_coverage}], got [{xs[row, 0]}, {xs[row, -1]}]"
            )
        return utilities

    # ------------------------------------------------------------------
    def build_structure(
        self,
        utilities: dict[int, PiecewiseLinear] | StackedPWL,
        lp_mode: bool = False,
        binary_cells: tuple[int, ...] | list[int] | None = None,
    ) -> MILPStructure:
        """Assemble (or fetch from cache) the constraint system.

        The result depends only on the graph, the per-cell breakpoint
        abscissae, ``lp_mode``, and the ``binary_cells`` selection — beta
        sweeps and other objective-only changes hit the cache.

        Parameters
        ----------
        binary_cells:
            Cells that carry ``z`` binaries and SOS2 rows; ``None`` means
            all of them. Ignored in ``lp_mode`` (no binaries at all).
        """
        utilities = self._stack(utilities)
        xs = utilities.xs
        if lp_mode:
            binary = np.zeros(xs.shape[0], dtype=bool)
            binary_key: tuple[int, ...] | None = None
        elif binary_cells is None:
            binary = np.ones(xs.shape[0], dtype=bool)
            binary_key = None
        else:
            binary_key = tuple(sorted(set(int(v) for v in binary_cells)))
            binary = np.isin(utilities.cells, binary_key)
        digest = hashlib.sha256(xs.tobytes()).hexdigest()
        key = (lp_mode, binary_key, xs.shape, digest)
        with self._lock:
            cached = self._structures.get(key)
            if cached is not None:
                self._structure_hits += 1
                return cached
            self._structure_misses += 1
        # Assembly happens outside the lock: racing cold builds produce the
        # same (deterministic) structure and the incumbent insertion wins.

        graph = self.graph
        n_edges = graph.n_edges
        n_cells, n_points = xs.shape
        m = n_points - 1
        # Variable layout: [f (n_edges) | lambda blocks | z blocks (MILP)].
        lam_start = n_edges + n_points * np.arange(n_cells)
        z_start = n_edges + n_cells * n_points
        n_vars = z_start + m * int(binary.sum())

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        lbs: list[float] = []
        ubs: list[float] = []

        def add_row(col_idx, coeffs, lo: float, hi: float) -> None:
            rows.append(np.full(len(col_idx), len(lbs)))
            cols.append(np.asarray(col_idx))
            vals.append(np.asarray(coeffs, dtype=float))
            lbs.append(lo)
            ubs.append(hi)

        out_edges, in_edges = graph.incidence_lists()

        # Unit flow out of the source and into the sink; conservation inside.
        src, snk = graph.source_node, graph.sink_node
        add_row(out_edges[src], np.ones(out_edges[src].size), 1.0, 1.0)
        add_row(in_edges[snk], np.ones(in_edges[snk].size), 1.0, 1.0)
        for node in range(graph.n_nodes):
            if node in (src, snk):
                continue
            into, out = in_edges[node], out_edges[node]
            if into.size + out.size:
                coef = np.r_[np.ones(into.size), -np.ones(out.size)]
                add_row(np.r_[into, out], coef, 0.0, 0.0)

        # Coverage linking: sum_j lambda_vj x_j - K*(inflow_v + 1{v=src}) = 0.
        K = float(self.n_patrols)
        for row, edge_idx in enumerate(graph.cell_visit_edges().values()):
            rhs = K if utilities.cells[row] == graph.source_cell else 0.0
            add_row(
                np.r_[lam_start[row] + np.arange(n_points), edge_idx],
                np.r_[xs[row], np.full(edge_idx.size, -K)],
                rhs,
                rhs,
            )

        # Convexity; plus the SOS2 adjacency system for binary cells (concave
        # utilities make the plain lambda relaxation exact, so their cells
        # carry no binaries).
        z_next = z_start
        for row in range(n_cells):
            lam_idx = lam_start[row] + np.arange(n_points)
            add_row(lam_idx, np.ones(n_points), 1.0, 1.0)
            if not binary[row]:
                continue
            z_idx = list(range(z_next, z_next + m))
            z_next += m
            add_row(z_idx, [1.0] * m, 1.0, 1.0)
            for j in range(m + 1):
                # lambda_j may be positive only beside a selected segment.
                adjacent = z_idx[max(j - 1, 0) : j + 1]
                add_row(
                    [lam_idx[j]] + adjacent,
                    [1.0] + [-1.0] * len(adjacent),
                    -np.inf,
                    0.0,
                )

        matrix = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(lbs), n_vars),
        ).tocsc()

        integrality = np.zeros(n_vars)
        integrality[z_start:] = 1

        structure = MILPStructure(
            matrix=matrix,
            row_lb=np.asarray(lbs),
            row_ub=np.asarray(ubs),
            integrality=integrality,
            n_vars=n_vars,
            lp_mode=lp_mode,
            binary_cells=binary_key,
        )
        with self._lock:
            incumbent = self._structures.get(key)
            if incumbent is not None:
                return incumbent
            self._structures[key] = structure
        return structure

    def objective_vector(
        self,
        structure: MILPStructure,
        utilities: dict[int, PiecewiseLinear] | StackedPWL,
    ) -> np.ndarray:
        """Minimisation objective (−utility) for a cached structure."""
        ys = self._stack(utilities).ys
        objective = np.zeros(structure.n_vars)
        start = self.graph.n_edges
        objective[start : start + ys.size] = -ys.ravel()  # maximise
        return objective

    # ------------------------------------------------------------------
    #: Maximum certified-envelope rounds (one pure-LP round plus partial
    #: re-solves) before auto mode falls back to the full SOS2 MILP.
    MAX_ENVELOPE_ROUNDS = 3

    #: Realised per-cell envelope slack above which a cell is declared an
    #: offender and gets its segment binaries back.
    _OFFENDER_TOL = 1e-9

    def solve(
        self,
        utilities: dict[int, PiecewiseLinear] | StackedPWL,
        mode: str = "auto",
    ) -> MILPSolution:
        """Maximise total PWL utility over the flow polytope (HiGHS).

        Parameters
        ----------
        utilities:
            One PWL utility per reachable cell: a ``{cell: function}`` dict
            (every function with the same number of breakpoints) or the
            same functions stacked (what :class:`PatrolPlanner` passes).
        mode:
            ``"auto"`` (default) takes the LP fast path when every utility
            is concave, the certified envelope path when some are not (see
            the module docstring), and the full SOS2 MILP only when the
            envelope certificate fails; ``"lp"`` forces the pure fast path
            (rejecting non-concave inputs); ``"milp"`` always carries the
            segment binaries.
        """
        if mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"mode must be one of {SOLVER_MODES}, got '{mode}'"
            )
        utilities = self._stack(utilities)
        if mode == "milp":
            return self._solve_model(utilities, utilities, lp_mode=False)
        all_concave = bool(utilities.is_concave().all())
        if mode == "lp" and not all_concave:
            raise ConfigurationError(
                "mode='lp' requires every utility to be concave (the lambda "
                "relaxation is only exact without SOS2 binaries then); use "
                "mode='auto' to fall back to the MILP"
            )
        if all_concave:
            return self._solve_model(utilities, utilities, lp_mode=True)
        return self._solve_enveloped(utilities)

    def _solve_enveloped(self, utilities: StackedPWL) -> MILPSolution:
        """Certified envelope fast path for non-concave utilities.

        Solves against the least concave majorants (pure LP first, then with
        binaries restored on offending cells), accepting a solution only when
        the relaxation's objective — a valid upper bound — matches the true
        utility of the returned coverage within ``mip_gap``. Falls back to
        the full MILP when the certificate keeps failing.
        """
        envelopes = utilities.concave_envelope()
        accept_tol = max(self.mip_gap, self.envelope_gap)
        cells = utilities.cells
        binary = np.zeros(cells.size, dtype=bool)
        for _ in range(self.MAX_ENVELOPE_ROUNDS):
            if binary.any():
                relaxed = StackedPWL(
                    cells, utilities.xs,
                    np.where(binary[:, None], utilities.ys, envelopes.ys),
                )
                solution = self._solve_model(
                    relaxed, utilities, lp_mode=False,
                    binary_cells=tuple(cells[binary].tolist()),
                    method="milp-partial",
                )
            else:
                solution = self._solve_model(
                    envelopes, utilities, lp_mode=True, method="lp-envelope"
                )
            upper = solution.objective_value
            coverage = solution.coverage[cells]
            values = utilities(coverage)
            # Sequential, in cell order, so reported values stay bit-stable.
            true_value = sum(values.tolist())
            if upper - true_value <= accept_tol * max(1.0, abs(upper)):
                solution.objective_value = true_value
                solution.bound_gap = max(0.0, upper - true_value) / max(
                    1.0, abs(upper)
                )
                return solution
            offenders = ~binary & (
                envelopes(coverage) - values > self._OFFENDER_TOL
            )
            if not offenders.any():
                break
            binary |= offenders
        return self._solve_model(utilities, utilities, lp_mode=False)

    def _solve_model(
        self,
        objective_utilities: StackedPWL,
        domain_utilities: StackedPWL,
        lp_mode: bool,
        binary_cells: tuple[int, ...] | None = None,
        method: str | None = None,
    ) -> MILPSolution:
        """Build (or fetch) a structure, solve it, extract the solution."""
        structure = self.build_structure(
            domain_utilities, lp_mode=lp_mode, binary_cells=binary_cells
        )
        objective = self.objective_vector(structure, objective_utilities)
        constraints = LinearConstraint(
            structure.matrix, structure.row_lb, structure.row_ub
        )
        options: dict = {"time_limit": self.time_limit}
        if structure.integrality.any():
            options["mip_rel_gap"] = self.mip_gap
        result = milp(
            c=objective,
            constraints=constraints,
            bounds=Bounds(np.zeros(structure.n_vars), np.ones(structure.n_vars)),
            integrality=structure.integrality,
            options=options,
        )
        if result.status == 2:
            raise InfeasibleError("patrol-planning MILP is infeasible")
        if result.x is None:
            raise PlanningError(f"MILP solve failed: {result.message}")
        solution = self.extract_solution(
            result.x,
            float(-result.fun),
            str(result.message),
            method=method or ("lp" if lp_mode else "milp"),
        )
        if structure.integrality.any():
            # HiGHS's own gap: at most mip_gap on a finished solve, larger
            # when it stopped early (time limit) with a feasible incumbent.
            solution.bound_gap = float(result.mip_gap)
        return solution

    def extract_solution(
        self,
        x: np.ndarray,
        objective_value: float,
        status: str,
        method: str = "milp",
    ) -> MILPSolution:
        """Turn a raw variable vector into coverage and flows."""
        graph = self.graph
        flows = np.asarray(x[: graph.n_edges], dtype=float)
        cells = graph.reachable_cells
        inflow = np.array(
            [flows[edges].sum() for edges in graph.cell_visit_edges().values()]
        )
        inflow[np.searchsorted(cells, graph.source_cell)] += 1.0
        coverage = np.zeros(graph.grid.n_cells)
        coverage[cells] = float(self.n_patrols) * inflow
        return MILPSolution(
            objective_value=objective_value,
            coverage=coverage,
            edge_flows=flows,
            status=status,
            method=method,
        )

    # ------------------------------------------------------------------
    def structure_cache_info(self) -> dict[str, int]:
        """Hit/miss counters of the model-structure cache."""
        return {
            "hits": self.structure_hits,
            "misses": self.structure_misses,
            "entries": len(self._structures),
        }
