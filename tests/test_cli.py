import csv
import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qgplab import cli, errors, evolve, linalg, metrics, models
from qgplab.models import BlochCurveModel, RobustModelParams, RotatingSpinParams, SmoothScalar

ROTATING_CONFIG = """
[model]
name = rotating_spin
eta = {eta}
xi = {xi}
k = {k}

[run]
tau_start = 0.0
tau_end = {tau_end}
samples = {samples}
level = upper
tol = 1e-9

[conditions]
delta = 0.1

[output]
dir = {out}
outputs = trajectory,fidelity,conditions
"""

CONSTANT_CONFIG = """
[model]
name = fourier
dim = 2
term1 = {{"matrix": "sigma_z", "omega": 0.0, "amplitude": 1.0}}

[run]
tau_end = 3.0
samples = 256
level = lower

[output]
dir = {out}
"""

BLOCH_CONFIG = """
[model]
name = bloch_curve
theta_type = poly
theta_coeffs = 1.0,0.2
phi_type = poly
phi_coeffs = 0.0,1.0

[run]
tau_end = 1.0
samples = 128

[output]
dir = {out}
"""

#: a level crossing: the gap 2|cos(tau)| closes at the sample tau = pi/2
CROSSING_CONFIG = """
[model]
name = fourier
dim = 2
term1 = {{"matrix": "sigma_z", "omega": 1.0, "amplitude": 1.0}}

[run]
tau_end = 3.141592653589793
samples = 65

[output]
dir = {out}
"""

#: a term whose amplitude times its largest entry overflows to inf
OVERFLOWING_TERM = 'term2 = {"matrix": [[2e10, 0], [0, 5e10]], "amplitude": 1e300}'

#: every exception class of the package, the base class included
PACKAGE_ERRORS = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.QgplabError)
]


def base_config(name, out):
    """A valid config text of the rotating-spin, Fourier or Bloch-curve model."""
    if name == "rotating":
        return ROTATING_CONFIG.format(eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=out)
    return (CONSTANT_CONFIG if name == "fourier" else BLOCH_CONFIG).format(out=out)


def add(section, line):
    """Config damage: ``line`` added to ``section``, which is appended if absent."""
    header = f"[{section}]\n"

    def damage(text):
        if header in text:
            return text.replace(header, header + line + "\n")
        return text + "\n" + header + line + "\n"

    return damage


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def rotating_config(tmp_path, params: RotatingSpinParams, out="out", samples=2048, periods=2.0):
    tau_end = periods * metrics.rotating_fidelity_period(params)
    text = ROTATING_CONFIG.format(
        eta=params.eta, xi=params.xi, k=params.K, tau_end=tau_end,
        samples=samples, out=tmp_path / out,
    )
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


class TestSimulate:
    def test_fidelity_columns_agree(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        assert cli.main(["simulate", "--config", str(config)]) == 0
        header, rows = read_csv(tmp_path / "out" / "fidelity.csv")
        assert header == ["tau", "F_simulated", "F_closed_form"]
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-6

    def test_trajectory_norms(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        assert cli.main(["simulate", "--config", str(config)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert header == ["tau", "re_a0", "im_a0", "re_a1", "im_a1", "norm"]
        np.testing.assert_allclose(rows[:, -1], 1.0, atol=1e-9)

    def test_constant_model_fidelity_is_one(self, tmp_path):
        path = tmp_path / "const.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "fidelity.csv")
        assert header == ["tau", "F_simulated"]
        np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-9)

    @pytest.mark.parametrize("outputs,written", [
        ("fidelity", ["fidelity.csv"]),
        ("trajectory", ["trajectory.csv"]),
        ("conditions,trajectory", ["trajectory.csv"]),
        ("fidelity,trajectory", ["trajectory.csv", "fidelity.csv"]),
    ], ids=["fidelity", "trajectory", "conditions,trajectory", "fidelity,trajectory"])
    def test_writes_only_the_named_outputs(self, tmp_path, capsys, outputs, written):
        out = tmp_path / "out"
        path = tmp_path / "outputs.ini"
        path.write_text(CONSTANT_CONFIG.format(out=out) + f"outputs = {outputs}\n")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
        files = " and ".join(f"{out}/{name}" for name in written)
        assert capsys.readouterr().out.startswith(f"simulate: wrote {files} (min F = ")

    def test_outputs_without_a_simulate_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "outputs.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out") + "outputs = conditions\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "config error: field 'outputs' in [output]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[model]\nname = rotating_spin\nxi = 0.5\nk = 1.0\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "eta" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        assert cli.main(["simulate", "--config", str(config), "--grid", "8"]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # a valid config whose gap closes on the sampled grid: a numerical
        # error, not a config one
        path = tmp_path / "closed.ini"
        path.write_text(CROSSING_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(path)]) == 3
        assert "gap" in capsys.readouterr().err.lower()
        assert not (tmp_path / "out").exists()

    def test_closed_form_column_counts_from_tau_start(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        tau_start = 2.01
        text = ROTATING_CONFIG.format(
            eta=params.eta, xi=params.xi, k=params.K, samples=1024, out=tmp_path / "out",
            tau_end=tau_start + 2.0 * metrics.rotating_fidelity_period(params),
        )
        config = tmp_path / "shifted.ini"
        config.write_text(text.replace("tau_start = 0.0", f"tau_start = {tau_start}"))
        assert cli.main(["simulate", "--config", str(config)]) == 0
        _, rows = read_csv(tmp_path / "out" / "fidelity.csv")
        assert rows[0, 0] == pytest.approx(2.01)
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-6

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tol_in_config_exits_2(self, tmp_path, capsys, tol):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        config.write_text(config.read_text().replace("tol = 1e-9", f"tol = {tol}"))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_bad_tol_override_exits_2(self, tmp_path, capsys, tol):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        assert cli.main(["simulate", "--config", str(config), "--tol", tol]) == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_bad_figure1_tol_exits_2(self, tmp_path, capsys, tol):
        assert cli.main(["figure1", "--out", str(tmp_path / "fig"), "--tol", tol]) == 2
        assert "tol" in capsys.readouterr().err
        assert not (tmp_path / "fig").exists()

    @pytest.mark.parametrize("grid", ["1", "10"])
    def test_bad_figure1_grid_exits_2(self, tmp_path, capsys, grid):
        assert cli.main(["figure1", "--out", str(tmp_path / "fig"), "--grid", grid]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "fig").exists()

    @pytest.mark.parametrize("command", ["simulate", "conditions"])
    @pytest.mark.parametrize("level", ["5", "-1"])
    def test_level_out_of_range_exits_2(self, tmp_path, capsys, command, level):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        config.write_text(config.read_text().replace("level = upper", f"level = {level}"))
        assert cli.main([command, "--config", str(config)]) == 2
        assert "field 'level' in [run]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [("tau_end", "inf"), ("tau_start", "nan"),
                                             ("tau_start", "-inf")])
    def test_non_finite_tau_exits_2(self, tmp_path, capsys, field, value):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        text = config.read_text()
        start = text.index(f"{field} = ")
        end = text.index("\n", start)
        config.write_text(text[:start] + f"{field} = {value}" + text[end:])
        assert cli.main(["conditions", "--config", str(config)]) == 2
        assert f"field '{field}' in [run]" in capsys.readouterr().err

    def test_invalid_model_params_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.ini"
        path.write_text(f"[model]\nname = rotating_spin\neta = 1.0\nxi = 0.5\nk = nan\n"
                        f"[output]\ndir = {tmp_path / 'out'}\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.1"])
    def test_bad_traditional_threshold_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "const.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out")
                        + f"\n[conditions]\ntraditional_threshold = {value}\n")
        assert cli.main(["conditions", "--config", str(path)]) == 2
        assert "field 'traditional_threshold' in [conditions]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--grid", "8", "option --grid: grid size 8 < 64"),
        ("--tol", "nan", "option --tol: must be finite and positive"),
        ("--delta", "2", "option --delta: must lie in (0, 1)"),
    ])
    def test_bad_override_names_the_option(self, tmp_path, capsys, option, value, message):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params)
        assert cli.main(["simulate", "--config", str(config), option, value]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "[run]" not in err and "[conditions]" not in err

    def test_override_replaces_bad_config_value(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params, samples=10)
        assert cli.main(["conditions", "--config", str(config)]) == 2
        assert cli.main(["conditions", "--config", str(config), "--grid", "4096"]) == 0
        _, rows = read_csv(tmp_path / "out" / "conditions.csv")
        assert rows.shape[0] == 4096

    def test_byte_identical_reruns(self, tmp_path):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params, samples=512)
        assert cli.main(["simulate", "--config", str(config)]) == 0
        first = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert cli.main(["simulate", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "trajectory.csv").read_bytes() == first
        # every writer: each file of each subcommand, run twice
        config.write_text(config.read_text() + "\n[sweep]\nk = 1.5, 2.0\nxi = 0.5\n")
        runs = {
            "simulate": (["--config", str(config)], ["trajectory.csv", "fidelity.csv"]),
            "conditions": (["--config", str(config)], ["conditions.csv", "summary.txt"]),
            "sweep": (["--config", str(config), "--grid", "128"], ["summary.csv"]),
            "figure1": (["--grid", "128"], ["bloch.csv", "P.csv", "figure1.svg"]),
        }
        for command, (args, files) in runs.items():
            outputs = []
            for rerun in range(2):
                out = tmp_path / f"{command}{rerun}"
                assert cli.main([command, *args, "--out", str(out)]) == 0
                assert sorted(p.name for p in out.iterdir()) == sorted(files)
                outputs.append([(out / name).read_bytes() for name in files])
            assert outputs[0] == outputs[1], command


class TestConditions:
    def test_unfaithful_regime_summary(self, tmp_path, regime_unfaithful, capsys):
        config = rotating_config(tmp_path, regime_unfaithful)
        assert cli.main(["conditions", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "traditional: " in text and "-> PASS" in text.splitlines()[2]
        assert "-> FAIL" in text.splitlines()[3]
        # adiabaticity indeed breaks: observed fidelity dips to ~sin(theta)
        observed = [ln for ln in text.splitlines() if "observed min fidelity" in ln][0]
        assert float(observed.split(":")[1]) < 0.2

    def test_rescued_regime_summary(self, tmp_path, regime_rescued):
        config = rotating_config(tmp_path, regime_rescued)
        assert cli.main(["conditions", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "-> FAIL" in text.splitlines()[2]
        assert "-> PASS" in text.splitlines()[3]
        observed = [ln for ln in text.splitlines() if "observed min fidelity" in ln][0]
        assert float(observed.split(":")[1]) > 0.99

    def test_csv_columns(self, tmp_path, regime_unfaithful):
        config = rotating_config(tmp_path, regime_unfaithful)
        assert cli.main(["conditions", "--config", str(config)]) == 0
        header, rows = read_csv(tmp_path / "out" / "conditions.csv")
        assert header == ["tau", "gap", "|gamma|", "delta_qgp", "traditional_ratio", "new_ratio"]
        p = regime_unfaithful
        np.testing.assert_allclose(rows[:, 3], p.qgp, atol=1e-6)
        np.testing.assert_allclose(rows[:, 2], p.coupling_abs, atol=1e-8)

    def test_constant_model_both_pass(self, tmp_path):
        path = tmp_path / "const.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["conditions", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert text.count("-> PASS") == 2

    @pytest.mark.parametrize("old,new,curve", [
        ("phi_type = poly\nphi_coeffs = 0.0,1.0", "phi_type = sinusoid\nphi_coeffs = 0.5,1.5,2.0,0.3",
         BlochCurveModel(theta=SmoothScalar.poly([1.0, 0.2]),
                         phi=SmoothScalar.sinusoid(0.5, 1.5, 2.0, 0.3))),
        ("theta_type = poly\ntheta_coeffs = 1.0,0.2", "theta_type = const\ntheta_coeffs = 1.0",
         BlochCurveModel(theta=SmoothScalar.constant(1.0), phi=SmoothScalar.poly([0.0, 1.0]))),
    ], ids=["sinusoid-phi", "const-theta"])
    def test_bloch_curve_columns_are_the_closed_form(self, tmp_path, old, new, curve):
        path = tmp_path / "bloch.ini"
        path.write_text(BLOCH_CONFIG.format(out=tmp_path / "out").replace(old, new))
        assert cli.main(["conditions", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "conditions.csv")
        tau = rows[:, header.index("tau")]
        assert np.array_equal(rows[:, header.index("delta_qgp")], models.bloch_qgp(curve, tau))
        assert np.array_equal(rows[:, header.index("|gamma|")],
                              np.abs(models.bloch_coupling(curve, tau)))

    def test_low_overlap_warning_reaches_stderr_once(self, tmp_path):
        # the rotating spin at K = 40 as fourier terms; 65 samples are too few
        # for level tracking to keep overlaps above 0.99
        path = tmp_path / "fast.ini"
        path.write_text(f"""
[model]
name = fourier
dim = 2
term1 = {{"matrix": "sigma_z", "omega": 0.0, "amplitude": 1.0}}
term2 = {{"matrix": "sigma_x", "omega": 80.0, "amplitude": 0.4}}
term3 = {{"matrix": "sigma_y", "omega": 80.0, "amplitude": 0.4, "phase": -1.5707963267948966}}

[run]
tau_end = 2.0
samples = 65

[output]
dir = {tmp_path / "out"}
""")
        src = Path(__file__).parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "qgplab.cli", "conditions", "--config", str(path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("level-tracking overlap dropped to") == 1
        assert "(< 0.99); consider a finer grid" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_vanishing_coupling_beside_a_persisting_one_exits_3(self, tmp_path, capsys):
        # the selection-rule model of test_conditions: gamma_20 vanishes, gamma_10 persists
        path = tmp_path / "rule.ini"
        path.write_text(f"""
[model]
name = fourier
dim = 3
term1 = {{"matrix": [[0,0,0],[0,1,0],[0,0,3]], "omega": 0.0, "amplitude": 1.0}}
term2 = {{"matrix": [[0,1,0],[1,0,0],[0,0,0]], "omega": 1.0, "amplitude": 1.0}}

[run]
tau_end = 4.0
samples = 256
level = 0

[output]
dir = {tmp_path / "out"}
""")
        assert cli.main(["conditions", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical error: Delta_02 undefined ")

    def test_three_level_emits_per_pair_files(self, tmp_path):
        config = f"""
[model]
name = fourier
dim = 3
term1 = {{"matrix": [[0,0,0],[0,2,0],[0,0,5]], "omega": 0.0, "amplitude": 1.0}}
term2 = {{"matrix": [[0,0.3,0.1],[0.3,0,0.2],[0.1,0.2,0]], "omega": 1.7, "amplitude": 1.0}}
term3 = {{"matrix": [[0,[0,-0.3],[0,-0.1]],[[0,0.3],0,[0,-0.2]],[[0,0.1],[0,0.2],0]], "omega": 1.7, "amplitude": 1.0, "phase": -1.5707963267948966}}

[run]
tau_end = 4.0
samples = 1024
level = 1

[output]
dir = {tmp_path / "out3"}
outputs = conditions
"""
        path = tmp_path / "three.ini"
        path.write_text(config)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        assert (tmp_path / "out3" / "conditions_m1_n0.csv").exists()
        assert (tmp_path / "out3" / "conditions_m1_n2.csv").exists()
        header, _ = read_csv(tmp_path / "out3" / "conditions_m1_n0.csv")
        assert header == ["tau", "gap", "|gamma|", "delta_qgp", "traditional_ratio", "new_ratio"]


@pytest.fixture(scope="module")
def figure1_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    code = cli.main(["figure1", "--out", str(out), "--grid", "4096", "--tol", "1e-6"])
    return code, out


class TestFigure1:
    @pytest.fixture
    def outputs(self, figure1_outputs):
        return figure1_outputs

    def test_exit_code(self, outputs):
        assert outputs[0] == 0

    def test_bloch_vectors_unit_norm(self, outputs):
        _, out = outputs
        header, rows = read_csv(out / "bloch.csv")
        assert header == ["tau", "evo_x", "evo_y", "evo_z", "adia_x", "adia_y", "adia_z"]
        for base in (1, 4):
            norms = np.linalg.norm(rows[:, base : base + 3], axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_min_probability_floor(self, outputs):
        _, out = outputs
        _, rows = read_csv(out / "P.csv")
        floor = metrics.p_min(RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=100.0))
        assert float(np.min(rows[:, 1])) >= floor - 1e-6
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-6

    def test_adiabatic_oscillation_frequency(self, outputs):
        _, out = outputs
        _, rows = read_csv(out / "bloch.csv")
        tau, z_adia = rows[:, 0], rows[:, 6]
        spectrum = np.abs(np.fft.rfft(z_adia - z_adia.mean()))
        peak = int(np.argmax(spectrum))
        omega_peak = 2.0 * np.pi * peak / (tau[-1] - tau[0])
        assert abs(omega_peak - 200.0) <= 0.05 * 200.0

    def test_svg_written(self, outputs):
        _, out = outputs
        svg = (out / "figure1.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 2


class TestSweep:
    def test_single_point_matches_conditions(self, tmp_path, regime_unfaithful):
        config_text = ROTATING_CONFIG.format(
            eta=regime_unfaithful.eta, xi=regime_unfaithful.xi, k=regime_unfaithful.K,
            tau_end=2.0 * metrics.rotating_fidelity_period(regime_unfaithful),
            samples=1024, out=tmp_path / "out",
        ) + "\n[sweep]\nk = 1.0\n"
        path = tmp_path / "sweep1.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["k", "traditional_ratio", "traditional_pass", "new_ratio",
                          "new_pass", "min_fidelity"]
        assert rows.shape[0] == 1
        assert rows[0, 2] == 1.0 and rows[0, 4] == 0.0

    def test_k_sweep_reproduces_verdict_flip(self, tmp_path):
        # periods differ wildly across K; pick a fixed short window instead
        config_text = ROTATING_CONFIG.format(
            eta=1.0, xi=0.05, k=1.0, tau_end=0.05, samples=512, out=tmp_path / "out",
        ) + "\n[sweep]\nk = 0.5,1.0,2.0,50.0,200.0\n"
        path = tmp_path / "sweepk.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        verdicts = {row[0]: (row[2], row[4]) for row in rows}
        assert verdicts[0.5] == (1.0, 1.0)  # well off resonance: both hold
        assert verdicts[1.0] == (1.0, 0.0)  # resonance: gap test blind, QGP test fails
        assert verdicts[50.0] == (0.0, 1.0)  # fast: gap test fails, QGP rescues
        assert verdicts[200.0] == (0.0, 1.0)

    def test_empty_range_exits_2(self, tmp_path, regime_unfaithful):
        config_text = ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ) + "\n[sweep]\nk =\n"
        path = tmp_path / "bad.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 2

    @pytest.mark.parametrize("values", ["1.0,abc", "1.0,inf", "nan"])
    def test_bad_values_exit_2(self, tmp_path, capsys, values):
        config_text = ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ) + f"\n[sweep]\nk = {values}\n"
        path = tmp_path / "bad.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "field 'k' in [sweep]" in capsys.readouterr().err

    def test_budget_exceeded_exits_2(self, tmp_path):
        values = ",".join(str(v) for v in range(25))
        config_text = ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ) + f"\n[sweep]\nk = {values}\neta = {values}\nxi = {values}\n"
        path = tmp_path / "big.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 2


class TestComputeOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_frame": 0, "evolve_schrodinger": 0}
        for name in counts:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        return counts

    def test_conditions_builds_each_stage_once(self, tmp_path, calls):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params, samples=256)
        assert cli.main(["conditions", "--config", str(config)]) == 0
        assert calls == {"build_frame": 1, "evolve_schrodinger": 1}

    @pytest.mark.parametrize("command", ["simulate", "conditions", "figure1"])
    def test_model_is_built_once(self, tmp_path, monkeypatch, calls, command):
        builds = []
        original = cli.build_model

        def counted(cfg):
            builds.append(cfg.model_name)
            return original(cfg)

        monkeypatch.setattr(cli, "build_model", counted)
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        config = rotating_config(tmp_path, params, samples=256)
        args = ["--out", str(tmp_path / "fig")] if command == "figure1" else ["--config", str(config)]
        assert cli.main([command, *args, "--grid", "128"]) == 0
        assert builds == ["robust" if command == "figure1" else "rotating_spin"]
        assert calls == {"build_frame": 1, "evolve_schrodinger": 1}

    def test_sweep_builds_each_stage_once_per_point(self, tmp_path, calls):
        config_text = ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ) + "\n[sweep]\nk = 0.5,1.0,2.0\n"
        path = tmp_path / "sweep3.ini"
        path.write_text(config_text)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert calls == {"build_frame": 3, "evolve_schrodinger": 3}


class TestFrameRelease:
    @pytest.mark.parametrize("route", ["analytic_frame", "analytic_derivative"])
    def test_simulate_frees_the_frame_before_the_evolution(self, tmp_path, monkeypatch, route):
        # the evolution and the fidelity need only the orbit of one level
        frames, alive = [], []
        build, evolve = cli.build_frame, cli.evolve_schrodinger

        def tracked_build(*args, **kwargs):
            frame = build(*args, **kwargs)
            frames.append(weakref.ref(frame))
            return frame

        def counted_evolve(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in frames))
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "build_frame", tracked_build)
        monkeypatch.setattr(cli, "evolve_schrodinger", counted_evolve)
        if route == "analytic_frame":
            config = rotating_config(tmp_path, RotatingSpinParams(eta=1.0, xi=0.5, K=2.0), samples=256)
        else:
            config = tmp_path / "constant.ini"
            config.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == 0
        if route == "analytic_derivative":
            # the orbit is built without a frame
            assert frames == []
        else:
            assert len(frames) == 1
        assert alive == [0]

    def test_eight_level_orbit_samples_no_derivative(self, tmp_path, monkeypatch):
        calls = {"build_frame": 0, "sample_derivative": 0}
        for owner, name in ((cli, "build_frame"), (models.HamiltonianModel, "sample_derivative")):

            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        config = tmp_path / "eight.ini"
        config.write_text(eight_level_config(tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == 0
        assert calls == {"build_frame": 0, "sample_derivative": 0}

    def test_eight_level_simulate_holds_two_stacks(self, tmp_path, monkeypatch):
        # one usable CPU: every block runs inline, one at a time
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        samples, dim = 4097, 8
        config = tmp_path / "eight.ini"
        config.write_text(eight_level_config(tmp_path / "out").replace(
            "samples = 2100", f"samples = {samples}"))
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", str(config)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = 16 * dim * dim
        stack = samples * matrix_bytes
        # two (K, N, N) stacks: eigh's samples and vectors, or a pass's
        # transfers and one chunk (4 MiB, one stack here); the blocks in
        # flight: one EXPM_BLOCK block and eight Pade sub-blocks, or eigh's
        # copies, and the 32nd of a chunk that the generators are formed
        # through; four (K, N) arrays: the orbit, the states of two passes
        # and the columns being written
        bound = (2 * stack + (linalg.EXPM_BLOCK + 8 * linalg._PADE_SUB_BLOCK) * matrix_bytes
                 + evolve._CHUNK_BYTES // 32 + 4 * samples * dim * 16)
        assert peak <= bound


class TestInputEdges:
    @pytest.mark.parametrize("damage,message", [
        (lambda text: "garbage line\n" + text, "contains no section headers"),
        (lambda text: text + "\n[model]\nname = fourier\n", "section 'model' already exists"),
        (lambda text: text.replace("dim = 2\n", "dim = 2\ndim = 2\n"),
         "option 'dim' in section 'model' already exists"),
        (lambda text: text.replace("samples = 256", "samples = 256%"), "'%' must be followed"),
    ], ids=["no-section-header", "duplicate-section", "duplicate-key", "bad-interpolation"])
    def test_malformed_ini_exits_2(self, tmp_path, capsys, damage, message):
        path = tmp_path / "malformed.ini"
        path.write_text(damage(CONSTANT_CONFIG.format(out=tmp_path / "out")))
        assert cli.main(["conditions", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: malformed config file {str(path)!r}" in err
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_undecodable_ini_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.ini"
        path.write_bytes(b"\xff\xfe" + CONSTANT_CONFIG.format(out=tmp_path / "out").encode())
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "malformed config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command,outputs,unknown", [
        ("simulate", "bogus", "'bogus'"),
        ("conditions", "conditions,fidelty", "'fidelty'"),
    ])
    def test_unknown_outputs_exit_2(self, tmp_path, capsys, command, outputs, unknown):
        path = tmp_path / "outputs.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out")
                        + f"outputs = {outputs}\n")
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"field 'outputs' in [output]: unknown {unknown}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,base,damage,message", [
        ("sweep", "rotating", add("sweep", "etaa = 1.0, 2.0, 3.0"),
         "field 'etaa' in [sweep]: unknown key (choose from eta, xi, k)"),
        ("simulate", "rotating", add("run", "sampels = 100000"),
         "field 'sampels' in [run]: unknown key"),
        ("conditions", "rotating", add("conditions", "detla = 0.2"),
         "field 'detla' in [conditions]: unknown key"),
        ("conditions", "rotating", add("output", "outptus = conditions"),
         "field 'outptus' in [output]: unknown key"),
        ("simulate", "rotating", add("model", "kk = 2.0"), "field 'kk' in [model]: unknown key"),
        ("conditions", "fourier", add("model", "eta = 1.0"),
         "field 'eta' in [model]: unknown key (choose from name, dim, term*)"),
        ("conditions", "rotating", add("runs", "samples = 128"), "unknown section [runs]"),
        ("conditions", "rotating", lambda text: "[DEFAULT]\nsamples = 128\n" + text,
         "unknown section [DEFAULT]"),
        ("sweep", "fourier", add("sweep", "dim = 2"),
         "field 'dim' in [sweep]: not a float-valued key of fourier (sweepable: none)"),
        ("sweep", "fourier", add("sweep", "term1 = 1.0"),
         "field 'term1' in [sweep]: not a float-valued key of fourier"),
        ("sweep", "bloch", add("sweep", "theta_type = 1.0"),
         "field 'theta_type' in [sweep]: not a float-valued key of bloch_curve"
         " (sweepable: a, b)"),
        ("sweep", "bloch", add("sweep", "theta_coeffs = 0.5, 1.0"),
         "field 'theta_coeffs' in [sweep]: not a float-valued key of bloch_curve"),
    ], ids=["sweep", "run", "conditions", "output", "model", "fourier-model", "section",
            "default-section", "sweep-dim", "sweep-term", "sweep-type", "sweep-coeffs"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, command, base, damage, message):
        path = tmp_path / "unknown.ini"
        path.write_text(damage(base_config(base, tmp_path / "out")))
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base,damage,message", [
        ("bloch", add("model", "b = nan"), "field 'b' in [model]: must be finite"),
        ("bloch", add("model", "a = inf"), "field 'a' in [model]: must be finite"),
        ("bloch", lambda text: text.replace("theta_coeffs = 1.0,0.2", "theta_coeffs = nan,0.2"),
         "field 'theta_coeffs' in [model]: must be finite"),
        ("fourier", add("model", 'term2 = {"matrix": "sigma_x", "omega": NaN}'),
         "field 'term2' in [model] (omega): must be finite"),
        ("fourier", add("model", 'term2 = {"matrix": "sigma_x", "amplitude": Infinity}'),
         "field 'term2' in [model] (amplitude): must be finite"),
        ("fourier", add("model", 'term2 = {"matrix": "sigma_x", "phase": NaN}'),
         "field 'term2' in [model] (phase): must be finite"),
        ("fourier", add("model", 'term2 = {"matrix": [[0, NaN], [NaN, 0]], "omega": 1.0}'),
         "field 'term2' in [model] (matrix): must be finite"),
        ("fourier", add("model", "term2 = [1,2]"), "field 'term2' in [model]: cannot parse"),
        ("fourier", add("model", 'term2 = {"matrix": [[[1, 0, 5], 0], [0, 1]]}'),
         "field 'term2' in [model]: cannot parse"),
        ("fourier", lambda text: text.replace("dim = 2", "dim = -1"),
         "field 'dim' in [model]: must be an integer >= 2, got -1"),
        ("fourier", lambda text: text.replace("dim = 2", "dim = 1"),
         "field 'dim' in [model]: must be an integer >= 2, got 1"),
        ("fourier", lambda text: "".join(
            line for line in text.replace("dim = 2", "dim = 0").splitlines(keepends=True)
            if not line.startswith("term1")),
         "field 'dim' in [model]: must be an integer >= 2, got 0"),
        ("bloch", add("model", "b = -1"), "field 'b' in [model]: must be positive, got -1.0"),
        ("bloch", add("model", "b = 0"), "field 'b' in [model]: must be positive, got 0.0"),
        ("fourier", add("model", 'term2 = {"matrix": [[0, 1], [0, 0]], "omega": 1.0}'),
         "field 'term2' in [model]: matrix is not Hermitian"),
        ("fourier", add("model", 'term2 = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'),
         "field 'term2' in [model]: matrix has shape (3, 3), expected (2, 2)"),
        # term10 sorts between term1 and term2; the error names the key, not a position
        ("fourier", lambda text: add("model", 'term10 = {"matrix": [[0, 1], [0, 0]]}')(
            add("model", 'term2 = {"matrix": "sigma_x", "omega": 1.0}')(text)),
         "field 'term10' in [model]: matrix is not Hermitian"),
        ("bloch", lambda text: text.replace("theta_type = poly", "theta_type = spline"),
         "'theta_type' in [model]: unknown kind 'spline'"),
        ("bloch", lambda text: text.replace("theta_type = poly", "theta_type = const"),
         "'theta_coeffs' in [model]: constant wants one value"),
    ], ids=["b-nan", "a-inf", "coeffs-nan", "omega-nan", "amplitude-inf", "phase-nan",
            "matrix-nan", "term-not-object", "entry-not-a-pair", "dim-negative", "dim-one",
            "dim-zero-no-terms", "b-negative", "b-zero", "term-not-hermitian",
            "term-wrong-shape", "term10-beside-term2", "unknown-kind", "const-two-values"])
    def test_bad_model_param_exits_2(self, tmp_path, capsys, base, damage, message):
        path = tmp_path / "model.ini"
        path.write_text(damage(base_config(base, tmp_path / "out")))
        assert cli.main(["conditions", "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,base,damage,message", [
        ("conditions", "bloch", lambda text: text.replace("phi_type = poly", "phi_type = sin"),
         "'phi_coeffs' in [model]: sinusoid wants offset,amplitude,omega[,phase]"),
        ("conditions", "fourier", lambda text: text[text.index("[run]"):],
         "missing section [model]"),
        ("conditions", "fourier", lambda text: text.replace("name = fourier", "name = fourir"),
         "field 'name' in [model]: unknown model 'fourir'"),
        ("conditions", "rotating", lambda text: text.replace("tau_start = 0.0", "tau_start = 1.0"),
         "field 'tau_end' in [run]: must exceed tau_start"),
        ("conditions", "rotating", lambda text: text.replace("tau_start = 0.0", "tau_start = 2.5"),
         "field 'tau_end' in [run]: must exceed tau_start"),
        ("conditions", "rotating", add("conditions", "pairing = lenient"),
         "field 'pairing' in [conditions]: conservative or strict"),
        # no term to check the shape against: numpy refuses the dim x dim stack
        ("conditions", "fourier", lambda text: "".join(
            line for line in text.replace("dim = 2", "dim = 10000000000").splitlines(keepends=True)
            if not line.startswith("term1")),
         "field 'dim' in [model]: "),
        ("conditions", "fourier", add("model", 'term2 = {"matrix": "sigma_w", "omega": 1.0}'),
         "field 'term2' in [model]: unknown matrix name 'sigma_w'"),
        ("sweep", "rotating", lambda text: text, "missing section [sweep] (nothing to sweep)"),
        ("sweep", "rotating", lambda text: text.replace("name = rotating_spin", "name = robust")
         .replace("xi = 0.5\nk = 1.0", "eta0 = 10.0\neta1 = 1.0\neta2 = 0.1")
         + "\n[sweep]\neta = 1.0\neta0 = 10.0\neta1 = 1.0\neta2 = 0.1\n",
         "section [sweep]: at most 3 swept parameters, got 4"),
    ], ids=["sinusoid-two-coeffs", "no-model-section", "unknown-model", "tau-end-equal",
            "tau-end-below", "pairing", "dim-too-big", "unknown-matrix-name", "no-sweep-section",
            "four-swept"])
    def test_config_error_exits_2(self, tmp_path, capsys, command, base, damage, message):
        path = tmp_path / "model.ini"
        path.write_text(damage(base_config(base, tmp_path / "out")))
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["missing.ini", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert cli.main(["conditions", "--config", str(path)]) == 2
        assert f"config error: cannot read config file {str(path)!r}" in capsys.readouterr().err

    def test_readme_ini_example_is_accepted(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [block] = [part.split("```")[0] for part in readme.split("```ini\n")[1:]]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg = cli.parse_config(str(path))
        cli._validate(cfg, {})
        run = cli.ScenarioRun(cfg)
        assert (run.model.dim, cfg.level, list(cfg.sweep)) == (2, 1, ["k"])

    @pytest.fixture
    def regular_file(self, tmp_path):
        path = tmp_path / "F"
        path.write_text("keep me\n")
        return path

    def assert_output_error(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert str(path) in err
        assert "config error" not in err

    @pytest.mark.parametrize("command", ["simulate", "conditions", "sweep", "figure1"])
    def test_out_below_a_regular_file_exits_2(self, tmp_path, capsys, regular_file, command):
        config = tmp_path / "rotating.ini"
        config.write_text(ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "unused",
        ) + "\n[sweep]\nk = 1.0\n")
        target = regular_file / "sub"
        args = ["--out", str(target)] + (["--grid", "64"] if command == "figure1" else
                                         ["--config", str(config)])
        assert cli.main([command, *args]) == 2
        self.assert_output_error(capsys, target)
        assert regular_file.read_text() == "keep me\n"

    def test_out_on_a_regular_file_exits_2(self, tmp_path, capsys, regular_file):
        config = tmp_path / "const.ini"
        config.write_text(CONSTANT_CONFIG.format(out=tmp_path / "unused"))
        assert cli.main(["conditions", "--config", str(config), "--out", str(regular_file)]) == 2
        self.assert_output_error(capsys, regular_file)
        assert regular_file.read_text() == "keep me\n"

    def test_degenerate_closed_form_exits_2(self, tmp_path, capsys):
        # K = 1 and xi ~ 0 leave A = 0, where closed_form_F raises DegenerateAError
        path = tmp_path / "degenerate.ini"
        path.write_text(ROTATING_CONFIG.format(
            eta=1.0, xi=1e-16, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ).replace("outputs = trajectory,fidelity,conditions", "outputs = fidelity"))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: A = 0")
        assert not (tmp_path / "out").exists()

    def test_degenerate_closed_form_fails_before_the_evolution(self, tmp_path, capsys,
                                                               monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the evolution ran")

        monkeypatch.setattr(cli, "evolve_schrodinger", never)
        path = tmp_path / "degenerate.ini"
        path.write_text(ROTATING_CONFIG.format(
            eta=1.0, xi=1e-16, k=1.0, tau_end=1.0, samples=256, out=tmp_path / "out",
        ).replace("outputs = trajectory,fidelity,conditions", "outputs = trajectory,fidelity"))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: A = 0")
        assert not (tmp_path / "out").exists()

    def test_conditions_gap_closure_exits_3_without_a_directory(self, tmp_path, capsys):
        path = tmp_path / "crossing.ini"
        path.write_text(CROSSING_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["conditions", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical error: min gap ")
        assert not (tmp_path / "out").exists()

    def test_lapack_failure_exits_3_without_a_directory(self, tmp_path, capsys, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        path = tmp_path / "three.ini"
        path.write_text(f"""
[model]
name = fourier
dim = 3
term1 = {{"matrix": [[0,0,0],[0,2,0],[0,0,5]], "omega": 0.0, "amplitude": 1.0}}
term2 = {{"matrix": [[0,0.3,0.1],[0.3,0,0.2],[0.1,0.2,0]], "omega": 1.7, "amplitude": 1.0}}

[run]
tau_end = 4.0
samples = 64
level = 1

[output]
dir = {tmp_path / "out"}
outputs = conditions
""")
        assert cli.main(["conditions", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "numerical error: Eigenvalues did not converge\n"
        assert not (tmp_path / "out").exists()

    def test_figure1_below_the_floor_exits_3_without_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["figure1", "--out", str(out), "--grid", "64", "--tol", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: min occupation ")
        assert not out.exists()

    @pytest.mark.parametrize("tau_start,tau_end", [("-1e308", "1e308"), ("1.0", "1.000000000000001")],
                             ids=["overflowing-span", "span-below-resolution"])
    @pytest.mark.parametrize("grid,where", [(None, "field 'samples' in [run]"),
                                            ("64", "option --grid")], ids=["config", "option"])
    def test_span_without_a_grid_exits_2(self, tmp_path, capsys, tau_start, tau_end, grid, where):
        path = tmp_path / "span.ini"
        path.write_text(ROTATING_CONFIG.format(
            eta=1.0, xi=0.5, k=1.0, tau_end=tau_end, samples=64, out=tmp_path / "out",
        ).replace("tau_start = 0.0", f"tau_start = {tau_start}"))
        args = [] if grid is None else ["--grid", grid]
        assert cli.main(["conditions", "--config", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: 64 samples on [{float(tau_start)!r}, ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["conditions", "simulate"])
    def test_overflowing_fourier_model_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "overflow.ini"
        path.write_text(add("model", OVERFLOWING_TERM)(base_config("fourier", tmp_path / "out")))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fourier terms [1]: ")
        assert err.endswith(" is not finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_package_error_maps_to_an_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def failing(cfg):
            raise error("injected")

        monkeypatch.setitem(cli.COMMANDS, "conditions", failing)
        config = tmp_path / "const.ini"
        config.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out"))
        numerical = issubclass(error, errors.NumericalError)
        assert cli.main(["conditions", "--config", str(config)]) == (3 if numerical else 2)
        kind = "numerical" if numerical else "config"
        assert capsys.readouterr().err == f"{kind} error: injected\n"


def eight_level_config(out):
    """An 8-level ``fourier`` config: diag(0, 4, ..., 28) plus one seeded
    Hermitian coupling of spectral norm 0.6 oscillating at omega = 1."""
    rng = np.random.default_rng(8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    coupling = 0.5 * (g + g.conj().T)
    coupling *= 0.6 / np.linalg.norm(coupling, 2)
    pairs = [[[z.real, z.imag] for z in row] for row in coupling]
    return (
        "[model]\nname = fourier\ndim = 8\n"
        f"term1 = {json.dumps({'matrix': np.diag(4.0 * np.arange(8)).tolist(), 'omega': 0.0})}\n"
        f"term2 = {json.dumps({'matrix': pairs, 'omega': 1.0})}\n\n"
        "[run]\ntau_end = 3.0\nsamples = 2100\nlevel = 3\ntol = 1e-6\n\n"
        f"[output]\ndir = {out}\n"
    )


class TestThreads:
    """Only the blocks inside the batched kernels run on the pool: every
    function the benchmark's tracer wraps runs on the calling thread, whose
    span stack it keeps."""

    def test_traced_functions_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        # two usable CPUs, so that the pool runs on any host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        calls = []
        for owner, attr, name, _ in tracing._targets():

            def recorded(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, recorded)
        pade_threads = []
        pade = linalg._pade_unitary

        def recorded_pade(a):
            pade_threads.append(threading.get_ident())
            return pade(a)

        monkeypatch.setattr(linalg, "_pade_unitary", recorded_pade)
        config = tmp_path / "eight.ini"
        config.write_text(eight_level_config(tmp_path / "out"))
        for command in ("simulate", "conditions"):
            assert cli.main([command, "--config", str(config)]) == 0
        names = {name for name, _ in calls}
        assert {"models.sample", "models.sample_derivative", "linalg.eigh_batch",
                "linalg.expm_unitary_batch", "reporting.write_csv"} <= names
        main = threading.get_ident()
        assert {thread for _, thread in calls} == {main}
        assert pade_threads and main not in pade_threads


class TestHeap:
    """``cli.main`` tunes glibc's allocator through ``mallopt`` and does
    nothing where the C library has no ``mallopt``."""

    def test_glibc_takes_each_setting(self):
        libc = ctypes.CDLL(None)
        if not (hasattr(libc, "mallopt") and hasattr(libc, "mallinfo2")):
            pytest.skip("needs glibc 2.33 or later")
        for param, value in cli._MALLOPT:
            assert libc.mallopt(param, value) == 1, (param, value)

        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in
                        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

        libc.mallinfo2.restype = Mallinfo2
        libc.malloc.restype = ctypes.c_void_p
        libc.free.argtypes = [ctypes.c_void_p]
        cli._tune_heap()
        # 40 MiB is above the largest threshold glibc picks by itself (32 MiB),
        # so the block comes from the heap only if the 64 MiB setting holds
        mapped = libc.mallinfo2().hblkhd
        block = libc.malloc(40 << 20)
        try:
            assert block
            assert libc.mallinfo2().hblkhd == mapped
        finally:
            libc.free(block)

    @pytest.mark.parametrize("libc", ["no-mallopt", "no-library"])
    def test_without_mallopt_nothing_happens(self, tmp_path, monkeypatch, libc):
        def cdll(name):
            if libc == "no-library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli._tune_heap() is None
        path = tmp_path / "constant.ini"
        path.write_text(CONSTANT_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["conditions", "--config", str(path)]) == 0
