"""The solver zoo: pinned patrol formulations and optima.

Seeded patrol MILPs, two of them frozen as ``.npz`` files so the
formulation :class:`repro.planning.milp.PatrolMILP` builds cannot drift
silently, plus the optimum HiGHS must reach on each, with every answer
checked against the patrol graph by a feasibility certificate.
"""
