"""Command-line front end.

Reads a JSON system config, dispatches to the solvers and estimators, and
emits either a human-readable summary (4 significant digits) or a
machine-readable CSV/JSON artifact (full double precision, '.' decimal,
LF line endings). :func:`_build_parser` declares each command once, with
its options, its handler and the formats it can produce (the first is the
default). :func:`run` reads the config, calls the handler on the parsed
namespace and the config, and writes what it returns in the requested
format: a handler returns its JSON document, from which :func:`_render`
derives the summary and the one-row CSV, or the document with the views
it renders itself. Identical invocations with identical seeds produce
byte-identical machine output. Exit codes: 0 success, 2 config/validation
problems (malformed options and unwritable output paths included) and
usage errors, 3 runtime failures (degenerate measurements, missing roots,
unstable simulations).
"""

import argparse
import json
import sys

from . import _solve, estimation, models, monopoly, wardrop
from . import duopoly as duopoly_mod
from .errors import DomainError, QpkError, ValidationError
from .models import P_MIN

SUMMARY, JSON_FMT, CSV_FMT = "summary", "json", "csv"


def _load_config(path: str) -> models.SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError([f"cannot read config {path!r}: {exc}"]) from exc
    return models.config_from_json(text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError([f"cannot write {path!r}: {exc}"]) from exc


def _fmt4(x: float) -> str:
    return f"{x:.4g}"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _leaves(doc: dict):
    """The (key, value) leaves of a document in key order, nested objects
    flattened."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield key, value


def _word(value) -> str:
    """A summary value: strings as they are, booleans, integers and null as
    lowercase words, number lists joined with spaces, numbers at 4
    significant digits."""
    if isinstance(value, str):
        return value
    if value is None or isinstance(value, int):
        return str(value).lower()
    if isinstance(value, list):
        return " ".join(_fmt4(v) for v in value)
    return _fmt4(value)


def _render(out, fmt: str) -> str:
    """A handler's output in one format. out is its JSON document, or a
    (document, {format: text}) pair for a command with its own views."""
    doc, views = out if isinstance(out, tuple) else (out, {})
    if fmt in views:
        return views[fmt]
    if fmt == JSON_FMT:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == CSV_FMT:
        row = {k: v for k, v in doc.items() if not isinstance(v, str)}
        return _csv(row, [row.values()])
    return "".join(f"{k} = {_word(v)}\n" for k, v in _leaves(doc))


def _make_oracle(args: argparse.Namespace, cfg):
    base = estimation.exact_oracle(cfg)
    if args.oracle == "exact":
        return base
    if args.oracle == "noisy":
        return estimation.noisy_oracle(base, args.noise, args.seed)
    return estimation.des_oracle(cfg, args.horizon, args.seed)


# --- command handlers: each takes the parsed namespace and the config ------


def _cmd_equilibrium(args, cfg):
    prices = wardrop.PriceVector(args.c1, args.c2)
    split = wardrop.solve_equilibrium(cfg, prices)
    r1, r2, rt = wardrop.revenue_rates(split, prices)
    return {"beta1": split.beta1, "gamma1": split.gamma1, "gamma2": split.gamma2,
            "r1": r1, "r2": r2, "regime": split.regime.name, "rt": rt}


def _cmd_monopoly(args, cfg):
    res = monopoly.optimize_monopoly(cfg, args.c2)
    return {"c1_star": res.c1_star, "gamma1_star": res.gamma1_star, "rt_star": res.rt_star}


def _cmd_best_response(args, cfg):
    br = duopoly_mod.best_response(cfg, args.server, args.other_price)
    return {"server": br.server, "given_price": br.given_price,
            "gamma_star": br.gamma_star, "price_star": br.price_star,
            "revenue_star": br.revenue_star,
            "stationary_points": list(br.stationary_points)}


def _cmd_nash(args, cfg):
    init = wardrop.PriceVector(args.c1_init, args.c2_init)
    out = duopoly_mod.nash_iterate(cfg, init, tol=args.tol, max_iter=args.max_iter,
                                   damping=args.damping)
    return {"c1": out.prices.c1, "c2": out.prices.c2, "converged": out.converged,
            "iterations": out.iterations, "residual": out.residual,
            "symmetric_alpha": out.symmetric_alpha}


def _cmd_symmetric(args, cfg):
    a1, a2 = duopoly_mod.symmetric_alpha(cfg)
    verdict = duopoly_mod.check_symmetric_nash(cfg, tol=args.tol)
    return {"alpha1": a1, "alpha2": a2, "verdict": verdict.value}


def _cmd_estimate_exp(args, cfg):
    fit = estimation.estimate_exponential(_make_oracle(args, cfg), args.c1, args.c2,
                                          args.delta)
    return {"rate": fit.rate, "tau": fit.tau}


def _cmd_estimate_param(args, cfg):
    # parsed here rather than by an argparse type=, whose usage error
    # would read differently
    try:
        prices = [float(x) for x in args.prices.split(",")]
    except ValueError as exc:
        raise ValidationError([f"cannot parse --prices: {exc}"]) from exc
    fit = estimation.estimate_parametric(_make_oracle(args, cfg), args.family, args.c2,
                                         prices)
    params = dict(zip(models.FAMILIES[fit.family].param_names(), fit.params))
    return {"family": fit.family, "params": params,
            "residual_norm": fit.residual_norm, "converged": fit.converged}


class _LoggingOracle:
    """Records every measurement an estimator requests."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def measure(self, c1, c2):
        m = self.inner.measure(c1, c2)
        self.log.append(m)
        return m


def _cmd_estimate_density(args, cfg):
    oracle = _make_oracle(args, cfg)
    if args.measurements:
        oracle = _LoggingOracle(oracle)
    est = estimation.estimate_density(oracle, args.c2, args.c1_start, args.delta,
                                      args.steps)
    if args.measurements:
        _write_file(args.measurements,
                    _csv(("c1", "c2", "gamma1", "gamma2", "d1", "d2"),
                         [(m.c1, m.c2, m.gamma1, m.gamma2, m.d1, m.d2)
                          for m in oracle.log]))
    doc = {"bins": [{"beta_lo": lo, "beta_hi": hi, "z": z} for lo, hi, z in est.bins],
           "covered_mass": est.covered_mass,
           "gaps": [{"c1_lo": a, "c1_hi": b} for a, b in est.gaps]}
    zs = [z for _, _, z in est.bins]
    summary = {"bins": len(est.bins), "covered_mass": est.covered_mass,
               "z_min": min(zs), "z_max": max(zs)}
    return doc, {CSV_FMT: _csv(("beta_lo", "beta_hi", "z"), est.bins),
                 SUMMARY: _render(summary, SUMMARY)}


def _parse_classes(raw: str):
    out = []
    try:
        for part in raw.split(","):
            beta, _, rate = part.partition(":")
            out.append((float(beta), float(rate)))
    except ValueError as exc:
        raise ValidationError([f"cannot parse --classes: {exc}"]) from exc
    return out


def _cmd_discover_classes(args, cfg):
    # The config supplies the two delay models; its sensitivity law is
    # replaced by the discrete classes under discovery, and the total rate
    # is the sum of the class rates.
    classes = _parse_classes(args.classes)
    try:
        oracle = estimation.discrete_class_oracle(classes, cfg.d1, cfg.d2)
        eps = 1e-3 * oracle.lam if args.eps is None else args.eps
        dc = estimation.discover_classes(oracle, lam=oracle.lam, delta=args.delta,
                                         eps=eps, c1_init=args.c1_init)
    except DomainError as exc:
        raise ValidationError([str(exc)]) from exc
    summary = {f"class_{i + 1}": f"beta={_fmt4(b)} rate={_fmt4(r)}"
               for i, (b, r) in enumerate(dc.classes)}
    summary.update(complete=dc.complete, residual_rate=dc.residual_rate)
    doc = {"classes": [{"beta": b, "rate": r} for b, r in dc.classes],
           "complete": dc.complete, "residual_rate": dc.residual_rate}
    return doc, {SUMMARY: _render(summary, SUMMARY)}


_CURVES = ("beta1", "g1", "g2", "revenue", "r1-and-c1")


def _cmd_sweep(args, cfg):
    what, n, c2 = args.what, args.n, args.c2
    if what in ("revenue", "r1-and-c1") and c2 is None:
        raise ValidationError([f"--c2 is required for the {what} curve"])
    _solve.check_count("--n", n, 2)

    if what in ("beta1", "g1", "g2"):
        rate, own = ("gamma2", cfg.swapped()) if what == "g2" else ("gamma1", cfg)
        solves = wardrop.Thresholds(own)
        fn = solves.beta1 if what == "beta1" else solves.g1
        grid = _solve.uniform_grid(*solves.bracket, n).tolist()
        return None, {CSV_FMT: _csv((rate, what), [(g, fn(g)) for g in grid])}
    if what == "revenue":
        return None, {CSV_FMT: _csv(("gamma1", "revenue"), monopoly.revenue_curve(cfg, c2, n))}
    wardrop.check_price("rival price", c2)  # as rate_cap_1 checks it
    solves = wardrop.Thresholds(cfg)
    cap, g1 = solves.root(-c2, True)[0], solves.g1
    rows = []
    for g in _solve.uniform_grid(cfg.lam * P_MIN, cap * (1.0 - P_MIN), n).tolist():
        gap = g1(g)
        rows.append((g, (gap + c2) * g, c2 + gap))
    return None, {CSV_FMT: _csv(("gamma1", "r1", "c1"), rows)}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and write its output in args.format;
    returns the process exit status."""
    try:
        text = _render(args.handler(args, _load_config(args.config)), args.format)
        if args.output:
            _write_file(args.output, text)
        else:
            sys.stdout.write(text)
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

    def command(name, summary, handler, *formats):
        """A subcommand that runs handler and writes any of formats, the
        first by default."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
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

    p = command("equilibrium", "solve the split for a price pair", _cmd_equilibrium,
                SUMMARY, JSON_FMT, CSV_FMT)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)

    p = command("monopoly", "revenue-optimal price for server 1", _cmd_monopoly,
                SUMMARY, JSON_FMT, CSV_FMT)
    p.add_argument("--c2", type=float, required=True)

    p = command("duopoly-best-response", "one server's best response", _cmd_best_response,
                SUMMARY, JSON_FMT)
    p.add_argument("--server", type=int, choices=(1, 2), required=True)
    p.add_argument("--other-price", type=float, required=True)

    p = command("duopoly-nash", "alternating best-response search", _cmd_nash,
                SUMMARY, JSON_FMT)
    p.add_argument("--c1-init", type=float, default=1.0)
    p.add_argument("--c2-init", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--damping", type=float, default=1.0)

    p = command("duopoly-symmetric", "symmetric candidate price and its verdict",
                _cmd_symmetric, SUMMARY, JSON_FMT)
    p.add_argument("--tol", type=float, default=1e-6)

    p = command("estimate-exp", "fit an exponential sensitivity law", _cmd_estimate_exp,
                SUMMARY, JSON_FMT)
    oracle_opts(p)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = command("estimate-param", "fit a parametric sensitivity law", _cmd_estimate_param,
                SUMMARY, JSON_FMT)
    oracle_opts(p)
    p.add_argument("--family", required=True,
                   choices=tuple(sorted(models.FAMILIES)))
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--prices", required=True,
                   help="comma-separated strictly increasing c1 values")

    p = command("estimate-density", "piecewise-constant density from a price sweep",
                _cmd_estimate_density, CSV_FMT, JSON_FMT, SUMMARY)
    oracle_opts(p)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c1-start", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--measurements", default=None,
                   help="also write the measurement log CSV here")

    p = command("discover-classes", "discover discrete sensitivity classes",
                _cmd_discover_classes, JSON_FMT, SUMMARY)
    p.add_argument("--classes", required=True,
                   help="beta:rate pairs, e.g. '4:1,2:1.5' (synthetic system)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--eps", type=float, default=None,
                   help="rate threshold; default 1e-3 * total rate")
    p.add_argument("--c1-init", type=float, required=True)

    p = command("sweep", "emit a plot-ready curve as CSV", _cmd_sweep, CSV_FMT)
    p.add_argument("--what", required=True, choices=_CURVES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c2", type=float, default=None,
                   help="required for revenue and r1-and-c1 curves")

    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
