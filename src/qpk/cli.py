"""Command-line front end.

Reads a JSON system config, dispatches to the solvers and estimators, and
emits either a human-readable summary (4 significant digits) or a
machine-readable CSV/JSON artifact (full double precision, '.' decimal,
LF line endings). Each handler returns a :class:`Result` and :func:`run`
writes it in the requested format; a command's ``--format`` choices are
the formats it can produce. Identical invocations with identical seeds
produce byte-identical machine output. Exit codes: 0 success, 2
config/validation problems and usage errors, 3 runtime failures
(degenerate measurements, missing roots, unstable simulations).
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import _solve, estimation, models, monopoly, wardrop
from . import duopoly as duopoly_mod
from .errors import DomainError, QpkError, ValidationError
from .models import P_MIN

SUMMARY, JSON_FMT, CSV_FMT = "summary", "json", "csv"


@dataclass
class RunSpec:
    command: str
    config_path: str
    params: dict = field(default_factory=dict)
    fmt: str = SUMMARY
    output: str = None  # None = stdout
    seed: int = 0


@dataclass
class Result:
    """What a command produced, in each form it has: the JSON document,
    the (key, value) pairs of the summary, and the CSV text. A form the
    command lacks stays None."""

    doc: object = None
    pairs: list = None
    csv: str = None


def _load_config(path: str) -> models.SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError([f"cannot read config {path!r}: {exc}"]) from exc
    return models.config_from_json(text)


def _emit(spec: RunSpec, text: str) -> None:
    if spec.output:
        with open(spec.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt4(x: float) -> str:
    return f"{x:.4g}"


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _summary(pairs) -> str:
    return "".join(f"{k} = {v if isinstance(v, str) else _fmt4(v)}\n"
                   for k, v in pairs)


def _make_oracle(spec: RunSpec, cfg):
    kind = spec.params.get("oracle", "exact")
    base = estimation.exact_oracle(cfg)
    if kind == "exact":
        return base
    if kind == "noisy":
        return estimation.noisy_oracle(base, spec.params.get("noise", 0.01), spec.seed)
    if kind == "des":
        return estimation.des_oracle(cfg, spec.params.get("horizon", 10000.0), spec.seed)
    raise ValidationError([f"unknown oracle {kind!r}; expected exact, noisy or des"])


# --- command handlers --------------------------------------------------------


def _cmd_equilibrium(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    prices = wardrop.PriceVector(spec.params["c1"], spec.params["c2"])
    split = wardrop.solve_equilibrium(cfg, prices)
    r1, r2, rt = wardrop.revenue_rates(split, prices)
    doc = {"gamma1": split.gamma1, "gamma2": split.gamma2, "beta1": split.beta1,
           "regime": split.regime.name, "r1": r1, "r2": r2, "rt": rt}
    keys = sorted(k for k in doc if k != "regime")
    return Result(doc, sorted(doc.items()), _csv(keys, [[doc[k] for k in keys]]))


def _cmd_monopoly(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    res = monopoly.optimize_monopoly(cfg, spec.params["c2"],
                                     grid_size=spec.params.get("grid", monopoly.DEFAULT_GRID))
    doc = {"gamma1_star": res.gamma1_star, "c1_star": res.c1_star,
           "rt_star": res.rt_star}
    keys = sorted(doc)
    return Result(doc, sorted(doc.items()), _csv(keys, [[doc[k] for k in keys]]))


def _cmd_best_response(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    br = duopoly_mod.best_response(cfg, spec.params["server"], spec.params["other_price"])
    doc = {"server": br.server, "given_price": br.given_price,
           "gamma_star": br.gamma_star, "price_star": br.price_star,
           "revenue_star": br.revenue_star,
           "stationary_points": list(br.stationary_points)}
    return Result(doc, [
        ("server", str(br.server)), ("given_price", br.given_price),
        ("gamma_star", br.gamma_star), ("price_star", br.price_star),
        ("revenue_star", br.revenue_star),
        ("stationary_points", " ".join(_fmt4(p) for p in br.stationary_points)),
    ])


def _cmd_nash(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    init = wardrop.PriceVector(spec.params.get("c1_init", 1.0),
                               spec.params.get("c2_init", 1.0))
    out = duopoly_mod.nash_iterate(cfg, init, tol=spec.params.get("tol", 1e-6),
                                   max_iter=spec.params.get("max_iter", 100),
                                   damping=spec.params.get("damping", 1.0))
    doc = {"c1": out.prices.c1, "c2": out.prices.c2, "converged": out.converged,
           "iterations": out.iterations, "residual": out.residual,
           "symmetric_alpha": out.symmetric_alpha}
    return Result(doc, [
        ("c1", out.prices.c1), ("c2", out.prices.c2),
        ("converged", str(out.converged).lower()),
        ("iterations", str(out.iterations)), ("residual", out.residual),
    ])


def _cmd_symmetric(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    a1, a2 = duopoly_mod.symmetric_alpha(cfg)
    verdict = duopoly_mod.check_symmetric_nash(cfg, tol=spec.params.get("tol", 1e-6))
    doc = {"alpha1": a1, "alpha2": a2, "verdict": verdict.value}
    return Result(doc, [("alpha1", a1), ("alpha2", a2), ("verdict", verdict.value)])


def _cmd_estimate_exp(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    oracle = _make_oracle(spec, cfg)
    fit = estimation.estimate_exponential(oracle, spec.params["c1"],
                                          spec.params["c2"], spec.params["delta"])
    doc = {"tau": fit.tau, "rate": fit.rate}
    return Result(doc, sorted(doc.items()))


def _cmd_estimate_param(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    oracle = _make_oracle(spec, cfg)
    fit = estimation.estimate_parametric(oracle, spec.params["family"],
                                         spec.params["c2"], spec.params["prices"])
    params = list(zip(models.FAMILIES[fit.family].param_names(), fit.params))
    doc = {"family": fit.family, "params": dict(params),
           "residual_norm": fit.residual_norm, "converged": fit.converged}
    return Result(doc, [("family", fit.family)] + params + [
        ("residual_norm", fit.residual_norm), ("converged", str(fit.converged).lower())])


class _LoggingOracle:
    """Records every measurement an estimator requests."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def measure(self, c1, c2):
        m = self.inner.measure(c1, c2)
        self.log.append(m)
        return m


def _cmd_estimate_density(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    oracle = _make_oracle(spec, cfg)
    log_path = spec.params.get("measurements")
    if log_path:
        oracle = _LoggingOracle(oracle)
    est = estimation.estimate_density(oracle, spec.params["c2"],
                                      spec.params["c1_start"],
                                      spec.params["delta"], spec.params["steps"])
    if log_path:
        with open(log_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(estimation.measurements_to_csv(oracle.log))
    doc = {"bins": [{"beta_lo": lo, "beta_hi": hi, "z": z} for lo, hi, z in est.bins],
           "covered_mass": est.covered_mass,
           "gaps": [{"c1_lo": a, "c1_hi": b} for a, b in est.gaps]}
    pairs = [("bins", str(len(est.bins))), ("covered_mass", est.covered_mass),
             ("z_min", min(z for _, _, z in est.bins)),
             ("z_max", max(z for _, _, z in est.bins))]
    return Result(doc, pairs, estimation.density_to_csv(est))


def _parse_classes(raw: str):
    out = []
    for part in raw.split(","):
        beta, _, rate = part.partition(":")
        out.append((float(beta), float(rate)))
    return out


def _cmd_discover_classes(spec: RunSpec) -> Result:
    # The config supplies the two delay models; its sensitivity law is
    # replaced by the discrete classes under discovery, and the total rate
    # is the sum of the class rates.
    cfg = _load_config(spec.config_path)
    classes = _parse_classes(spec.params["classes"])
    oracle = estimation.discrete_class_oracle(classes, cfg.d1, cfg.d2)
    dc = estimation.discover_classes(
        oracle, lam=oracle.lam, delta=spec.params["delta"],
        eps=spec.params["eps"], c1_init=spec.params["c1_init"])
    pairs = [(f"class_{i + 1}", f"beta={_fmt4(b)} rate={_fmt4(r)}")
             for i, (b, r) in enumerate(dc.classes)]
    pairs += [("complete", str(dc.complete).lower()),
              ("residual_rate", dc.residual_rate)]
    return Result(estimation.classes_to_dict(dc), pairs)


_CURVES = ("beta1", "g1", "g2", "revenue", "r1-and-c1")


def _cmd_sweep(spec: RunSpec) -> Result:
    cfg = _load_config(spec.config_path)
    what = spec.params["what"]
    n = spec.params["n"]
    if n < 2:
        raise DomainError(f"sweep needs n >= 2, got {n}")
    if what not in _CURVES:
        raise DomainError(f"unknown curve {what!r}; expected one of {_CURVES}")

    if what in ("beta1", "g1", "g2"):
        rate, fn = {"beta1": ("gamma1", wardrop.threshold_of_rate),
                    "g1": ("gamma1", wardrop.price_gap_1),
                    "g2": ("gamma2", wardrop.price_gap_2)}[what]
        grid = _solve.uniform_grid(*wardrop._root_bracket(cfg), n).tolist()
        return Result(csv=_csv((rate, what), [(g, fn(cfg, g)) for g in grid]))
    c2 = spec.params["c2"]
    if what == "revenue":
        return Result(csv=_csv(("gamma1", "revenue"), monopoly.revenue_curve(cfg, c2, n)))
    cap = wardrop.rate_cap_1(cfg, c2)
    rows = []
    for g in _solve.uniform_grid(cfg.lam * P_MIN, cap * (1.0 - P_MIN), n).tolist():
        gap = wardrop.price_gap_1(cfg, g)
        rows.append((g, (gap + c2) * g, c2 + gap))
    return Result(csv=_csv(("gamma1", "r1", "c1"), rows))


# command -> (handler, the formats it can produce; the first is the default)
_COMMANDS = {
    "equilibrium": (_cmd_equilibrium, (SUMMARY, JSON_FMT, CSV_FMT)),
    "monopoly": (_cmd_monopoly, (SUMMARY, JSON_FMT, CSV_FMT)),
    "duopoly-best-response": (_cmd_best_response, (SUMMARY, JSON_FMT)),
    "duopoly-nash": (_cmd_nash, (SUMMARY, JSON_FMT)),
    "duopoly-symmetric": (_cmd_symmetric, (SUMMARY, JSON_FMT)),
    "estimate-exp": (_cmd_estimate_exp, (SUMMARY, JSON_FMT)),
    "estimate-param": (_cmd_estimate_param, (SUMMARY, JSON_FMT)),
    "estimate-density": (_cmd_estimate_density, (CSV_FMT, JSON_FMT, SUMMARY)),
    "discover-classes": (_cmd_discover_classes, (JSON_FMT, SUMMARY)),
    "sweep": (_cmd_sweep, (CSV_FMT,)),
}


def _render(result: Result, fmt: str) -> str:
    if fmt == JSON_FMT:
        return _json_doc(result.doc)
    if fmt == CSV_FMT:
        return result.csv
    return _summary(result.pairs)


def run(spec: RunSpec) -> int:
    """Execute one parsed command and write its output in spec.fmt;
    returns the process exit status."""
    try:
        handler, formats = _COMMANDS[spec.command]
        if spec.fmt not in formats:
            raise ValidationError([f"{spec.command} cannot write {spec.fmt}; "
                                   f"its formats are {', '.join(formats)}"])
        _emit(spec, _render(handler(spec), spec.fmt))
        return 0
    except ValidationError as exc:
        for failure in exc.failures:
            print(f"error: {failure}", file=sys.stderr)
        return 2
    except QpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpk",
        description="Equilibria, admission pricing, and sensitivity-law "
                    "estimation for a two-server queueing system.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        formats = _COMMANDS[name][1]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="path to a qpk/1 JSON config")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write the artifact here "
                       "instead of stdout")
        return p

    def oracle_opts(p):
        p.add_argument("--oracle", choices=("exact", "noisy", "des"), default="exact")
        p.add_argument("--noise", type=float, default=0.01,
                       help="relative noise of the noisy oracle")
        p.add_argument("--horizon", type=float, default=10000.0,
                       help="simulated time of the des oracle")
        p.add_argument("--seed", type=int, default=0)

    p = command("equilibrium", "solve the split for a price pair")
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)

    p = command("monopoly", "revenue-optimal price for server 1")
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--grid", type=int, default=monopoly.DEFAULT_GRID)

    p = command("duopoly-best-response", "one server's best response")
    p.add_argument("--server", type=int, choices=(1, 2), required=True)
    p.add_argument("--other-price", type=float, required=True)

    p = command("duopoly-nash", "alternating best-response search")
    p.add_argument("--c1-init", type=float, default=1.0)
    p.add_argument("--c2-init", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--damping", type=float, default=1.0)

    p = command("duopoly-symmetric", "symmetric candidate price and its verdict")
    p.add_argument("--tol", type=float, default=1e-6)

    p = command("estimate-exp", "fit an exponential sensitivity law")
    oracle_opts(p)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = command("estimate-param", "fit a parametric sensitivity law")
    oracle_opts(p)
    p.add_argument("--family", required=True,
                   choices=tuple(sorted(models.FAMILIES)))
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--prices", required=True,
                   help="comma-separated strictly increasing c1 values")

    p = command("estimate-density", "piecewise-constant density from a price sweep")
    oracle_opts(p)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c1-start", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--measurements", default=None,
                   help="also write the measurement log CSV here")

    p = command("discover-classes", "discover discrete sensitivity classes")
    p.add_argument("--classes", required=True,
                   help="beta:rate pairs, e.g. '4:1,2:1.5' (synthetic system)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--eps", type=float, default=None,
                   help="rate threshold; default 1e-3 * total rate")
    p.add_argument("--c1-init", type=float, required=True)

    p = command("sweep", "emit a plot-ready curve as CSV")
    p.add_argument("--what", required=True, choices=_CURVES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c2", type=float, default=None,
                   help="required for revenue and r1-and-c1 curves")

    return parser


def _spec_from_args(args) -> RunSpec:
    skip = {"command", "config", "format", "output", "seed"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if args.command in ("sweep",) and args.what in ("revenue", "r1-and-c1") \
            and "c2" not in params:
        raise ValidationError([f"--c2 is required for the {args.what} curve"])
    if args.command == "estimate-param":
        try:
            params["prices"] = [float(x) for x in params["prices"].split(",")]
        except ValueError as exc:
            raise ValidationError([f"cannot parse --prices: {exc}"]) from exc
    if args.command == "discover-classes" and params.get("eps") is None:
        total = sum(r for _, r in _parse_classes(params["classes"]))
        params["eps"] = 1e-3 * total
    return RunSpec(
        command=args.command,
        config_path=args.config,
        params=params,
        fmt=args.format,
        output=args.output,
        seed=getattr(args, "seed", 0),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValidationError as exc:
        for failure in exc.failures:
            print(f"error: {failure}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
