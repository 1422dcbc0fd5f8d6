#!/usr/bin/env python3
"""Head-to-head of the two adiabaticity criteria on the rotating-spin model.

Regime A (eta >> xi, K ~ 1): the gap-only criterion passes, yet the state
leaves the adiabatic orbit (fidelity dips to ~sin(theta)); the QGP-corrected
criterion correctly fails.

Regime B (K >> 1, K >> eta): the gap-only criterion fails, yet the evolution
is adiabatic (fidelity ~ 1); the QGP-corrected criterion correctly passes.

Usage: python3 scripts/regime_comparison.py
"""
import numpy as np

from qgplab import metrics
from qgplab.cli import ScenarioConfig, ScenarioRun
from qgplab.models import RotatingSpinParams

REGIMES = {
    "A_gap_test_blind": RotatingSpinParams(eta=0.995, xi=0.0999, K=1.0),
    "B_gap_test_paranoid": RotatingSpinParams(eta=1.0, xi=0.05, K=200.0),
}


def run(label: str, params: RotatingSpinParams) -> None:
    # two periods of the closed-form fidelity, upper level, tol 1e-9, delta 0.1
    scenario = ScenarioRun(ScenarioConfig(
        model_name="rotating_spin",
        model_params={"eta": repr(params.eta), "xi": repr(params.xi), "k": repr(params.K)},
        tau_end=2.0 * metrics.rotating_fidelity_period(params),
        samples=4097,
    ))
    report, fid = scenario.report, scenario.fidelity
    closed = metrics.closed_form_F(params, scenario.grid.samples)

    print(f"--- regime {label}: eta={params.eta} xi={params.xi} K={params.K} ---")
    print(f"  traditional ratio {report.max_traditional:10.4f} -> "
          f"{'PASS' if report.traditional_pass else 'FAIL'}")
    print(f"  new (QGP) ratio   {report.max_new:10.4f} -> "
          f"{'PASS' if report.new_pass else 'FAIL'}")
    print(f"  min fidelity      {np.min(fid.values):10.6f} "
          f"(closed form {np.min(closed):.6f})")
    print(f"  QGP Delta_+-      {params.qgp:10.4f} vs gap {2 * params.energy:.4f}")


if __name__ == "__main__":
    for label, params in REGIMES.items():
        run(label, params)
