"""Fig. 7: prediction-vs-variance correlation, GPs vs bagged trees.

The paper: "The Pearson correlation coefficient is -0.198 for GPs, but
0.979 for bagging decision trees — a near-perfect correlation. Thus, the
variance values for bagging decision trees provide little additional
insight ... GPs are necessary for this insight."

Regenerated on one weak learner trained on MFNP-like data, reporting both
the between-member variance and the infinitesimal-jackknife variance for
the tree ensemble.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation import format_table
from repro.ml import BaggingClassifier, DecisionTreeClassifier, GaussianProcessClassifier
from repro.ml.jackknife import bagging_ij_variance

from conftest import write_report

#: Pearson r as recorded in ``results/fig7_uncertainty_correlation.txt``;
#: a change to the GP or tree fits must keep each within +-0.01.
R_PINS = {"gp": 0.139, "trees_member": 0.790, "trees_ij": 0.344}


def test_fig7_prediction_variance_correlation(mfnp_data, benchmark):
    split = mfnp_data.dataset.split_by_test_year(5)
    X_train, y_train = split.train.feature_matrix, split.train.labels
    X_test = split.test.feature_matrix

    def run_models():
        gp = GaussianProcessClassifier(rng=np.random.default_rng(1))
        gp.fit(X_train, y_train)
        gp_pred = gp.predict_proba(X_test)
        gp_var = gp.predict_variance(X_test)

        trees = BaggingClassifier(
            lambda: DecisionTreeClassifier(
                max_depth=8, max_features="sqrt", rng=np.random.default_rng(2)
            ),
            n_estimators=30,
            rng=np.random.default_rng(3),
        )
        trees.fit(X_train, y_train)
        tree_pred = trees.predict_proba(X_test)
        return {
            "gp": float(np.corrcoef(gp_pred, gp_var)[0, 1]),
            "trees_member": float(
                np.corrcoef(tree_pred, trees.predict_variance(X_test))[0, 1]
            ),
            "trees_ij": float(
                np.corrcoef(tree_pred, bagging_ij_variance(trees, X_test))[0, 1]
            ),
        }

    corr = benchmark.pedantic(run_models, rounds=1, iterations=1)
    table = format_table(
        ["uncertainty source", "Pearson r (ours)", "Pearson r (paper)"],
        [
            ["Gaussian process variance", corr["gp"], -0.198],
            ["Bagged trees (member variance)", corr["trees_member"], 0.979],
            ["Bagged trees (inf. jackknife)", corr["trees_ij"], 0.979],
        ],
    )
    write_report("fig7_uncertainty_correlation", table)

    # The contrast that justifies GPs: tree variance is strongly coupled to
    # the prediction, GP variance is not.
    assert corr["trees_member"] > 0.4
    assert abs(corr["gp"]) < 0.5
    assert corr["trees_member"] - corr["gp"] > 0.4
    for source, pinned in R_PINS.items():
        assert abs(corr[source] - pinned) <= 0.01, (source, corr[source], pinned)
