"""Reproduction drivers: one module per table/figure of the paper.

Run any module as a script (``python -m repro.experiments.table7_bootstrap``)
or call its ``run()`` for structured rows.  ``run_all()`` executes the
complete evaluation section.  The serving sweeps are registered once in
:data:`SWEEPS`, which feeds ``ALL_EXPERIMENTS`` and the ``repro`` CLI.
"""

from . import (ablation_keyswitch, autoscale_sweep, extras_balance,
               fault_sweep, fig1_dnum, fig2_fftiter, leveled_vs_bootstrap,
               resilience_autoscale_sweep, serve_sweep, slo_sweep,
               striping_scale, table2_params, table3_resources,
               table4_comparison, table5_basic_ops, table6_heax,
               table7_bootstrap, table8_lr)
from .common import ExperimentResult, ExperimentRow, print_result

_SWEEP_MODULES = (serve_sweep, slo_sweep, fault_sweep, autoscale_sweep,
                  resilience_autoscale_sweep)

#: ``repro`` command -> :class:`~repro.experiments.common.Sweep`.
SWEEPS = {module.SWEEP.command: module.SWEEP for module in _SWEEP_MODULES}

ALL_EXPERIMENTS = {
    "fig1": fig1_dnum,
    "fig2": fig2_fftiter,
    "table2": table2_params,
    "table3": table3_resources,
    "table4": table4_comparison,
    "table5": table5_basic_ops,
    "table6": table6_heax,
    "table7": table7_bootstrap,
    "table8": table8_lr,
    "fig5_ablation": ablation_keyswitch,
    "leveled_vs_bootstrap": leveled_vs_bootstrap,
    "extras_balance": extras_balance,
    **{module.SWEEP.name: module for module in _SWEEP_MODULES},
    "stripe_scale": striping_scale,
}


def run_all(verbose: bool = True):
    """Run every experiment; returns {id: ExperimentResult}."""
    results = {}
    for key, module in ALL_EXPERIMENTS.items():
        result = module.run()
        results[key] = result
        if verbose:
            print_result(result)
    return results


__all__ = ["ALL_EXPERIMENTS", "SWEEPS", "ExperimentResult", "ExperimentRow",
           "print_result", "run_all"]
