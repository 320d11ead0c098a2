"""End-to-end command-line checks: artifacts, exit codes, determinism."""

import json

import pytest

from conftest import MALFORMED, MALFORMED_IDS, malformed_config
from qpk import (DelayModel, Exponential, Gamma, Power, SystemConfig, Uniform, balanced_load,
                 discover_classes, discrete_class_oracle, estimate_density,
                 exact_oracle, price_gap_1, price_gap_2, rate_cap_1, threshold_of_rate)
from qpk._solve import uniform_grid
from qpk.cli import main
from qpk.models import P_MIN, config_to_json


@pytest.fixture
def ex1_path(tmp_path):
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                       Uniform(2.0, 6.0))
    path = tmp_path / "ex1.json"
    path.write_text(config_to_json(cfg))
    return str(path)


@pytest.fixture
def ex3_path(tmp_path):
    cfg = SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0),
                       Uniform(2.0, 6.0))
    path = tmp_path / "ex3.json"
    path.write_text(config_to_json(cfg))
    return str(path)


@pytest.fixture
def ex4_path(tmp_path):
    cfg = SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0),
                       Exponential(4.0))
    path = tmp_path / "ex4.json"
    path.write_text(config_to_json(cfg))
    return str(path)


@pytest.fixture
def sat_path(tmp_path):
    cfg = SystemConfig(5.0, DelayModel.mm1(5.0), DelayModel.mm1(5.0),
                       Power(2.0, 4.0), saturation_ok=True)
    path = tmp_path / "sat.json"
    path.write_text(config_to_json(cfg))
    return str(path)


def _parse_summary(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" = ")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def test_monopoly_summary(ex1_path, capsys):
    assert main(["monopoly", "--config", ex1_path, "--c2", "1"]) == 0
    got = _parse_summary(capsys.readouterr().out)
    assert got["gamma1_star"] == pytest.approx(0.62, abs=0.01)
    assert got["c1_star"] == pytest.approx(3.106, abs=0.05)
    assert got["rt_star"] == pytest.approx(4.306, abs=0.01)


def test_equilibrium_identical_servers(ex3_path, capsys):
    assert main(["equilibrium", "--config", ex3_path, "--c1", "5", "--c2", "5",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma1"] == pytest.approx(1.5, rel=1e-12)
    assert doc["rt"] == pytest.approx(15.0, rel=1e-12)


def test_sweep_revenue_csv(ex1_path, capsys):
    assert main(["sweep", "--config", ex1_path, "--what", "revenue",
                 "--n", "400", "--c2", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "gamma1,revenue"
    assert len(lines) == 401
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    peak_gamma, peak_rt = max(rows, key=lambda r: r[1])
    assert peak_gamma == pytest.approx(0.62, abs=0.02)
    assert peak_rt == pytest.approx(4.306, abs=0.01)


def _beta1_step_at(rows, gamma):
    """Size of the curve's change across the grid cell containing gamma."""
    for (g1, b1), (_, b2) in zip(rows, rows[1:]):
        step = rows[1][0] - rows[0][0]
        if g1 <= gamma < g1 + step:
            return abs(b2 - b1)
    raise AssertionError("gamma not covered by the sweep grid")


def test_sweep_beta1_jump_vs_kink(tmp_path, capsys):
    fig = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                       Exponential(20.0))
    path = tmp_path / "fig.json"
    path.write_text(config_to_json(fig))
    assert main(["sweep", "--config", str(path), "--what", "beta1",
                 "--n", "2001"]) == 0
    rows = [tuple(map(float, ln.split(","))) for ln
            in capsys.readouterr().out.strip().split("\n")[1:]]
    # discontinuity at the balanced load for non-identical servers
    assert _beta1_step_at(rows, 9.9 / 7.3) > 1.0

    ident = SystemConfig(3.0, DelayModel.linear(4.0), DelayModel.linear(4.0),
                         Exponential(20.0))
    path2 = tmp_path / "ident.json"
    path2.write_text(config_to_json(ident))
    assert main(["sweep", "--config", str(path2), "--what", "beta1",
                 "--n", "2001"]) == 0
    rows = [tuple(map(float, ln.split(","))) for ln
            in capsys.readouterr().out.strip().split("\n")[1:]]
    # continuous there for identical servers (kinked, not jumping)
    assert _beta1_step_at(rows, 1.5) < 0.1


def test_sweep_g1_decreasing_with_zero_at_balance(ex1_path, capsys):
    assert main(["sweep", "--config", ex1_path, "--what", "g1", "--n", "301"]) == 0
    rows = [tuple(map(float, ln.split(","))) for ln
            in capsys.readouterr().out.strip().split("\n")[1:]]
    vals = [v for _, v in rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    crossing = next(g for (g, v), (_, v2) in zip(rows, rows[1:])
                    if v >= 0.0 > v2)
    assert crossing == pytest.approx(9.9 / 7.3, abs=0.02)


SWEEP_LAWS = [Exponential(4.0), Power(2.0, 4.0), Power(0.5, 7.0), Gamma(2.0, 2.0),
              Gamma(0.5, 3.0)]


@pytest.mark.parametrize("delays", ["linear", "mm1"])
@pytest.mark.parametrize("dist", SWEEP_LAWS, ids=repr)
def test_point_sweeps_are_the_public_functions(dist, delays, tmp_path, capsys):
    # each row of a point sweep is the public function at the row's rate, to
    # the bit, on every law: the grid is g1's root bracket, the monopoly's
    # range for revenue, or the best response's range for r1-and-c1
    d = getattr(DelayModel, delays)
    cfg = SystemConfig(3.0, d(3.3), d(4.0), dist)
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    lam, c2, n = cfg.lam, 1.0, 65
    bracket = (0.0, lam) if cfg.dist.bounded else (lam * P_MIN, lam * (1.0 - P_MIN))
    cap = rate_cap_1(cfg, c2) * (1.0 - P_MIN)
    curves = {
        "beta1": (bracket, lambda g: (threshold_of_rate(cfg, g),)),
        "g1": (bracket, lambda g: (price_gap_1(cfg, g),)),
        "g2": (bracket, lambda g: (price_gap_2(cfg, g),)),
        "revenue": ((lam * P_MIN, balanced_load(cfg)),
                    lambda g: (c2 * lam + price_gap_1(cfg, g) * g,)),
        "r1-and-c1": ((lam * P_MIN, cap),
                      lambda g: ((price_gap_1(cfg, g) + c2) * g, c2 + price_gap_1(cfg, g))),
    }
    for what, ((lo, hi), row) in curves.items():
        assert main(["sweep", "--config", str(path), "--what", what, "--n", str(n),
                     "--c2", str(c2)]) == 0
        rows = [tuple(map(float, ln.split(","))) for ln
                in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == uniform_grid(lo, hi, n)
        for r in rows:
            assert r[1:] == row(r[0])


def test_sweep_requires_c2_for_revenue(ex1_path, capsys):
    assert main(["sweep", "--config", ex1_path, "--what", "revenue",
                 "--n", "10"]) == 2
    assert "c2" in capsys.readouterr().err


def test_duopoly_commands(ex3_path, ex4_path, capsys):
    assert main(["duopoly-symmetric", "--config", ex3_path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha1"] == pytest.approx(3.0, abs=1e-9)
    assert doc["verdict"] == "confirmed"

    assert main(["duopoly-symmetric", "--config", ex4_path,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "necessary-only-failed"

    assert main(["duopoly-nash", "--config", ex3_path, "--format", "json",
                 "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["c1"] == pytest.approx(3.0, abs=1e-3)

    assert main(["duopoly-best-response", "--config", ex3_path,
                 "--server", "1", "--other-price", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma_star"] == pytest.approx(1.5, abs=1e-6)


def test_estimation_commands(tmp_path, sat_path, capsys):
    expo_cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0),
                            Exponential(4.0))
    expo_path = tmp_path / "expo.json"
    expo_path.write_text(config_to_json(expo_cfg))

    assert main(["estimate-exp", "--config", str(expo_path), "--c1", "3",
                 "--c2", "1", "--delta", "0.2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == pytest.approx(4.0, abs=1e-5)

    assert main(["estimate-param", "--config", str(expo_path),
                 "--family", "exponential", "--c2", "1",
                 "--prices", "3.0,3.1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["tau"] == pytest.approx(4.0, abs=1e-3)

    log_path = tmp_path / "meas.csv"
    assert main(["estimate-density", "--config", sat_path, "--c2", "5",
                 "--c1-start", "5", "--delta", "0.2", "--steps", "9",
                 "--measurements", str(log_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "beta_lo,beta_hi,z"
    assert len(lines) == 10
    log_lines = log_path.read_text().strip().split("\n")
    assert log_lines[0] == "c1,c2,gamma1,gamma2,d1,d2"
    assert len(log_lines) == 11


def test_discover_classes_command(tmp_path, capsys):
    # the config contributes the delay models; its own sensitivity law and
    # rate are replaced by the discrete classes under discovery
    cfg = SystemConfig(2.5, DelayModel.mm1(4.0), DelayModel.mm1(4.0),
                       Uniform(2.0, 6.0))
    path = tmp_path / "mm1.json"
    path.write_text(config_to_json(cfg))
    assert main(["discover-classes", "--config", str(path),
                 "--classes", "4:1,2:1.5", "--c1-init", "2", "--delta", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    betas = [c["beta"] for c in doc["classes"]]
    assert betas == pytest.approx([4.0, 2.0], abs=0.05)
    assert doc["complete"] is False


def test_measurement_csv_layout(ex1_path, tmp_path, capsys):
    log_path = tmp_path / "meas.csv"
    assert main(["estimate-density", "--config", ex1_path, "--c2", "1",
                 "--c1-start", "3.0", "--delta", "0.2", "--steps", "1",
                 "--measurements", str(log_path)]) == 0
    capsys.readouterr()
    lines = log_path.read_text().strip().split("\n")
    assert lines[0] == "c1,c2,gamma1,gamma2,d1,d2"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 3.0 and first[1] == 1.0
    assert first[2] + first[3] == pytest.approx(3.0, rel=1e-12)


def test_density_csv_layout(sat_path, sat_power, capsys):
    assert main(["estimate-density", "--config", sat_path, "--c2", "5",
                 "--c1-start", "5", "--delta", "0.2", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "beta_lo,beta_hi,z"
    est = estimate_density(exact_oracle(sat_power), 5.0, 5.0, 0.2, 3)
    assert [tuple(map(float, ln.split(","))) for ln in lines[1:]] == list(est.bins)


def test_classes_json_dict(tmp_path, capsys):
    d1 = d2 = DelayModel.mm1(4.0)
    path = tmp_path / "mm1.json"
    path.write_text(config_to_json(SystemConfig(2.5, d1, d2, Uniform(2.0, 6.0))))
    assert main(["discover-classes", "--config", str(path), "--classes", "4:1,2:1.5",
                 "--c1-init", "2", "--delta", "0.01", "--eps", "2.5e-3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    dc = discover_classes(discrete_class_oracle([(4.0, 1.0), (2.0, 1.5)], d1, d2),
                          lam=2.5, delta=0.01, eps=2.5e-3, c1_init=2.0)
    assert [c["beta"] for c in doc["classes"]] == [b for b, _ in dc.classes]
    assert doc["complete"] is False
    assert doc["residual_rate"] == dc.residual_rate


def test_machine_output_deterministic(ex1_path, capsys):
    args = ["monopoly", "--config", ex1_path, "--c2", "1", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)  # valid JSON artifact


def test_output_file(ex1_path, tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["monopoly", "--config", ex1_path, "--c2", "1",
                 "--format", "json", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["rt_star"] == pytest.approx(4.306, abs=0.01)


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "qpk/1", "lambda": 3, "typo": 1}')
    assert main(["monopoly", "--config", str(bad), "--c2", "1"]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err

    missing = tmp_path / "nope.json"
    assert main(["monopoly", "--config", str(missing), "--c2", "1"]) == 2
    capsys.readouterr()

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"lambda": 3.0, "\xb5": 1}')  # not UTF-8
    assert main(["monopoly", "--config", str(latin1), "--c2", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {str(latin1)!r}")


@pytest.mark.parametrize("path, value", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_config_exits_2(tmp_path, path, value, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(malformed_config(path, value))
    assert main(["monopoly", "--config", str(bad), "--c2", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["estimate-param", "--family", "uniform", "--c2", "1", "--prices", "2,x"],
    ["discover-classes", "--classes", "4:1,x", "--c1-init", "2"],
    ["sweep", "--what", "revenue", "--n", "5"],
])
def test_config_errors_come_before_option_errors(tmp_path, argv, capsys):
    # the config is read before any handler checks its own options
    bad = tmp_path / "bad.json"
    bad.write_text(malformed_config(("lambda",), "abc"))
    assert main(argv[:1] + ["--config", str(bad)] + argv[1:]) == 2
    assert capsys.readouterr().err == "error: lambda must be a JSON number, got 'abc'\n"


def test_validation_errors_list_everything(tmp_path, capsys):
    # an invalid system cannot be built, so its document is written by hand
    doc = {"schema": "qpk/1", "lambda": 3.0,
           "server1": {"delay": {"family": "mm1", "mu": 2.0}},
           "server2": {"delay": {"family": "mm1", "mu": 2.5}},
           "beta": {"family": "uniform", "a": 2.0, "b": 6.0}}
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    assert main(["monopoly", "--config", str(path), "--c2", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2  # both servers reported


def test_runtime_error_exits_3(ex1_path, capsys):
    # choked sweep: no informative pairs -> degenerate measurement set
    assert main(["estimate-density", "--config", ex1_path, "--c2", "1",
                 "--c1-start", "8", "--delta", "0.2", "--steps", "3"]) == 3
    assert "error:" in capsys.readouterr().err


def test_noisy_estimate_exp_with_a_nonpositive_threshold_exits_3(tmp_path, capsys):
    cfg = SystemConfig(3.0, DelayModel.linear(3.3), DelayModel.linear(4.0), Exponential(4.0))
    path = tmp_path / "ex1_expo.json"
    path.write_text(config_to_json(cfg))
    assert main(["estimate-exp", "--config", str(path), "--oracle", "noisy", "--noise", "0.5",
                 "--seed", "13", "--c1", "3", "--c2", "1", "--delta", "0.2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["duopoly-nash", "--max-iter", "0", "--format", "json"],
    ["estimate-exp", "--c1", "3", "--c2", "1", "--delta", "0.2", "--oracle", "des",
     "--horizon", "nan"],
    ["estimate-exp", "--c1", "3", "--c2", "1", "--delta", "0.2", "--oracle", "des",
     "--horizon", "inf"],
])
def test_nonfinite_horizon_or_empty_budget_exits_3(tmp_path, argv, capsys):
    cfg = SystemConfig(3.0, DelayModel.mm1(3.3), DelayModel.mm1(4.0), Uniform(2.0, 6.0))
    path = tmp_path / "mm1.json"
    path.write_text(config_to_json(cfg))
    assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["monopoly", "--c2", "nan", "--format", "json"],
    ["monopoly", "--c2", "inf"],
    ["duopoly-best-response", "--server", "1", "--other-price", "nan"],
    ["duopoly-best-response", "--server", "2", "--other-price", "-1"],
    ["duopoly-symmetric", "--tol", "-1"],
    ["duopoly-nash", "--tol", "nan"],
    ["sweep", "--what", "revenue", "--n", "5", "--c2", "nan"],
    ["sweep", "--what", "r1-and-c1", "--n", "5", "--c2", "nan"],
])
def test_bad_price_or_tolerance_exits_3(ex3_path, argv, capsys):
    assert main(argv[:1] + ["--config", ex3_path] + argv[1:]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("classes, message", [
    ("4:1,x", "cannot parse --classes"),
    ("4", "cannot parse --classes"),
    ("4:1,4:2", "class sensitivities must be distinct"),
])
def test_bad_classes_exit_2(tmp_path, classes, message, capsys):
    cfg = SystemConfig(2.5, DelayModel.mm1(4.0), DelayModel.mm1(4.0), Uniform(2.0, 6.0))
    path = tmp_path / "mm1.json"
    path.write_text(config_to_json(cfg))
    assert main(["discover-classes", "--config", str(path), "--classes", classes,
                 "--c1-init", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("option", [["--delta", "nan"], ["--delta", "1e-300"],
                                    ["--eps", "inf"]])
def test_discover_classes_bad_step_exits_2(tmp_path, option, capsys):
    # unchecked, such a step never lowers c1 and discovery loops forever
    cfg = SystemConfig(2.5, DelayModel.mm1(4.0), DelayModel.mm1(4.0), Uniform(2.0, 6.0))
    path = tmp_path / "mm1.json"
    path.write_text(config_to_json(cfg))
    assert main(["discover-classes", "--config", str(path), "--classes", "4:1,2:1.5",
                 "--c1-init", "2"] + option) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["monopoly", "--c2", "1", "--output"],
    ["estimate-density", "--c2", "1", "--c1-start", "3.0", "--delta", "0.2",
     "--steps", "1", "--measurements"],
])
def test_unwritable_output_path_exits_2(ex1_path, tmp_path, argv, capsys):
    path = tmp_path / "missing" / "out.txt"
    assert main(argv[:1] + ["--config", ex1_path] + argv[1:] + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(path)!r}")


@pytest.mark.parametrize("argv", [
    ["duopoly-nash", "--format", "csv"],
    ["sweep", "--what", "g1", "--n", "5", "--format", "json"],
])
def test_format_a_command_lacks_is_a_usage_error(ex1_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", ex1_path] + argv[1:])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_unknown_command_is_parser_error(ex1_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", ex1_path])
