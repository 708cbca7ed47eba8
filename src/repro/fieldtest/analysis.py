"""Field-test statistics (Table III / Fig. 10).

"We use a Pearson's chi-squared test to assess independence of the
observations on two variables (# Obs and Risk group)" — significant
p-values mean detected-poaching rates genuinely differ across the model's
risk categories, i.e. the model discriminates.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.fieldtest.simulate import FieldTrialResult


def chi_squared_test(result: FieldTrialResult) -> tuple[float, float]:
    """Pearson chi-squared independence test of observations vs risk group.

    Builds the 3x2 contingency table (cells with / without observed
    poaching per risk group, among patrolled cells) and returns
    ``(statistic, p_value)``.
    """
    table: list[list[int]] = []
    for outcome in result.ordered():
        with_obs = outcome.n_observations
        without = outcome.n_cells_patrolled - outcome.n_observations
        if without < 0:
            raise DataError(
                f"group {outcome.group.value}: more observations than cells"
            )
        table.append([with_obs, without])
    contingency = np.asarray(table)
    # Drop all-zero columns/rows (e.g. no observations anywhere) to keep the
    # test defined; the caller interprets a degenerate table as p=1.
    if (contingency.sum(axis=0) == 0).any() or (contingency.sum(axis=1) == 0).any():
        return 0.0, 1.0
    # Imported here: scipy.stats takes ~0.45 s to load, and the daemon and
    # most commands import this module without ever running the test.
    from scipy import stats

    statistic, p_value, __, __ = stats.chi2_contingency(contingency)
    return float(statistic), float(p_value)


def field_test_table(results: dict[str, FieldTrialResult]) -> str:
    """Render Table III: one block of rows per named trial."""
    lines = [
        f"{'Risk group':<12} {'# Obs.':>7} {'# Cells':>8} "
        f"{'Effort':>8} {'# Obs. / # Cells':>17}"
    ]
    for trial_name, result in results.items():
        lines.append(f"--- {trial_name} ---")
        for outcome in result.ordered():
            lines.append(
                f"{outcome.group.value.capitalize():<12} "
                f"{outcome.n_observations:>7d} "
                f"{outcome.n_cells_patrolled:>8d} "
                f"{outcome.effort_km:>8.1f} "
                f"{outcome.obs_per_cell:>17.2f}"
            )
        statistic, p_value = chi_squared_test(result)
        lines.append(f"chi2={statistic:.2f}  p={p_value:.4f}")
    return "\n".join(lines)
