"""Piecewise-linear approximation of black-box model responses.

The planner can only reason about the predictive model through sampled
points: "piecewise linear (PWL) approximations to these functions g_v are
constructed using m x N sampled points" (Section VI-B). The number of
segments trades approximation quality against MILP size — the paper's
Figs. 8(d-f) and 9 sweep it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class PiecewiseLinear:
    """A continuous piecewise-linear function on [x_0, x_m].

    Parameters
    ----------
    xs:
        Strictly increasing breakpoint abscissae.
    ys:
        Function values at the breakpoints.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ConfigurationError("xs and ys must be equal-length 1-D arrays")
        if xs.size < 2:
            raise ConfigurationError("a PWL function needs at least 2 breakpoints")
        if (np.diff(xs) <= 0).any():
            raise ConfigurationError("breakpoints must be strictly increasing")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ConfigurationError("breakpoints must be finite")
        self.xs = xs
        self.ys = ys

    @property
    def n_segments(self) -> int:
        return self.xs.size - 1

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate with flat extrapolation outside the breakpoint range."""
        scalar = np.isscalar(x)
        x_arr = np.clip(np.atleast_1d(np.asarray(x, dtype=float)),
                        self.xs[0], self.xs[-1])
        out = np.interp(x_arr, self.xs, self.ys)
        return float(out[0]) if scalar else out

    def max_value(self) -> float:
        """Largest breakpoint value (PWL maxima occur at breakpoints)."""
        return float(self.ys.max())

    def is_concave(self, tol: float = 1e-9) -> bool:
        """Whether segment slopes are nonincreasing.

        Concavity is what licenses the planner's LP fast path: a maximised
        concave PWL needs no SOS2 segment binaries, because the plain
        convex-combination (lambda) relaxation already attains the function
        value at every coverage level (see :class:`~repro.planning.milp.PatrolMILP`).

        ``tol`` is *relative to the slope magnitude* (with an absolute floor
        of ``tol`` itself for sub-unit slopes): slope differences are rounded
        quotients of breakpoint values, so their float noise scales with the
        slopes — an absolute test misfires on steep functions whose benign
        noise exceeds it.
        """
        return bool(concave_rows(self.xs, self.ys, tol))

    def concave_envelope(self) -> "PiecewiseLinear":
        """Least concave majorant of this function on the same breakpoints.

        The upper concave hull of the breakpoints, evaluated back at every
        breakpoint: pointwise ``>=`` this function, equal wherever the
        function is already concave. This is what the planner's certified
        envelope fast path relaxes non-concave utilities to (see
        :class:`~repro.planning.milp.PatrolMILP`).
        """
        envelope = concave_envelopes(self.xs[None], self.ys[None])[0]
        return PiecewiseLinear(self.xs, envelope)


class StackedPWL:
    """One PWL function per cell, as ``(n_cells, n_breakpoints)`` arrays.

    Row ``i`` of ``xs`` and ``ys`` is the function of ``cells[i]`` (ids
    strictly increasing). The planner resamples a post's utilities into this
    form and :class:`~repro.planning.milp.PatrolMILP` works on it, so each
    per-cell question (domain, concavity, value at a coverage) is one array
    operation or one loop over plain rows.
    """

    def __init__(self, cells: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        cells = np.asarray(cells)
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.ndim != 2 or xs.shape != ys.shape or cells.shape != xs.shape[:1]:
            raise ConfigurationError("need one (xs, ys) row per cell")
        if xs.shape[1] < 2 or (np.diff(xs) <= 0).any():
            raise ConfigurationError(
                "each row needs >= 2 strictly increasing breakpoints"
            )
        if (np.diff(cells) <= 0).any():
            raise ConfigurationError("cell ids must be strictly increasing")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ConfigurationError("breakpoints must be finite")
        self.cells, self.xs, self.ys = cells, xs, ys

    @classmethod
    def from_dict(cls, functions: dict[int, PiecewiseLinear]) -> "StackedPWL":
        """Stack ``{cell: function}``; every function needs as many
        breakpoints as the others."""
        cells = sorted(functions)
        if len({functions[v].xs.size for v in cells}) > 1:
            raise ConfigurationError(
                "every cell's PWL needs the same breakpoint count"
            )
        return cls(
            np.array(cells, dtype=int),
            np.stack([functions[v].xs for v in cells]),
            np.stack([functions[v].ys for v in cells]),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Row ``i`` at ``x[i]``, flat outside its range (as a PWL call)."""
        x = np.clip(x, self.xs[:, 0], self.xs[:, -1])
        return np.array([np.interp(*row) for row in zip(x, self.xs, self.ys)])

    def is_concave(self, tol: float = 1e-9) -> np.ndarray:
        """Per-row :meth:`PiecewiseLinear.is_concave`."""
        return concave_rows(self.xs, self.ys, tol)

    def concave_envelope(self) -> "StackedPWL":
        """Non-concave rows replaced by their least concave majorants."""
        bent = ~self.is_concave()
        ys = self.ys.copy()
        ys[bent] = concave_envelopes(self.xs[bent], self.ys[bent])
        return StackedPWL(self.cells, self.xs, ys)


def concave_rows(
    xs: np.ndarray, ys: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Whether each row's segment slopes are nonincreasing (last axis)."""
    slopes = np.diff(ys) / np.diff(xs)
    scale = np.maximum(1.0, np.abs(slopes).max(axis=-1, keepdims=True))
    return (np.diff(slopes) <= tol * scale).all(axis=-1)


def concave_envelopes(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Each row's upper concave hull, evaluated back at its breakpoints."""
    envelopes = np.empty_like(ys)
    for row, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        hull: list[int] = []
        for i in range(len(x)):
            # Drop hull points that fall below the chord to the new point.
            while len(hull) >= 2:
                i0, i1 = hull[-2], hull[-1]
                dx, dy = x[i1] - x[i0], y[i1] - y[i0]
                if not dx * (y[i] - y[i0]) - dy * (x[i] - x[i0]) >= 0:
                    break
                hull.pop()
            hull.append(i)
        envelopes[row] = np.interp(xs[row], xs[row, hull], ys[row, hull])
    # Guarantee the majorant property against interpolation rounding.
    return np.maximum(envelopes, ys)


def sample_breakpoints(
    max_effort: float, n_segments: int, spacing: str = "uniform"
) -> np.ndarray:
    """Breakpoint abscissae in [0, max_effort].

    Parameters
    ----------
    max_effort:
        Upper end of the effort domain (typically T*K, the coverage a fully
        concentrated strategy could place on one cell).
    n_segments:
        Number of PWL segments m (breakpoints = m + 1).
    spacing:
        ``"uniform"`` or ``"sqrt"`` (denser near zero, where detection
        curves bend the most).
    """
    if max_effort <= 0:
        raise ConfigurationError(f"max_effort must be positive, got {max_effort}")
    if n_segments < 1:
        raise ConfigurationError(f"n_segments must be >= 1, got {n_segments}")
    if spacing == "uniform":
        return np.linspace(0.0, max_effort, n_segments + 1)
    if spacing == "sqrt":
        u = np.linspace(0.0, 1.0, n_segments + 1)
        return max_effort * u**2
    raise ConfigurationError(f"unknown spacing '{spacing}'")


def pwl_from_samples(xs: np.ndarray, values: np.ndarray) -> list[PiecewiseLinear]:
    """One PWL function per row of a ``(n_cells, len(xs))`` sample matrix."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != np.asarray(xs).size:
        raise ConfigurationError(
            f"values must be (n_cells, {np.asarray(xs).size}), got {values.shape}"
        )
    return [PiecewiseLinear(xs, row) for row in values]
