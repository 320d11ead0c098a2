"""Outside-in tracer: wraps the public functions of each ``qpk`` layer.

Nothing under ``src/`` changes. ``Tracer.install`` replaces every wrapped
function in every ``qpk`` module namespace that binds it (``from x import
f`` copies a reference, so ``qpk.wardrop.quantile`` and
``qpk.estimation.gamma_p`` are patched as well as the defining modules),
and ``uninstall`` puts the originals back.

Each wrapped call is a span with a name, a start, an end and a parent (the
innermost open span). Spans are folded into per-name totals when they
close rather than stored one by one: a gamma op makes about 10^5 of them.
A span's self time is its duration minus the time its child spans cover.
"""

import functools
import sys
import time

# metric layer name -> (module, attribute) pairs it covers; a "Class.method"
# attribute wraps a method on the class
SPANS = {
    "special.gamma_p": [("_special", "gamma_p")],
    "special.gamma_p_inverse": [("_special", "gamma_p_inverse")],
    "special.log_gamma": [("_special", "log_gamma")],
    "models.quantile": [("models", "quantile")],
    "models.cdf": [("models", "cdf")],
    "models.density": [("models", "density")],
    "models.delay_eval": [("models", "delay_eval")],
    "models.validate_config": [("models", "validate_config")],
    "wardrop.price_gap": [("wardrop", "price_gap_1"), ("wardrop", "price_gap_2")],
    "wardrop.threshold_of_rate": [("wardrop", "threshold_of_rate")],
    "wardrop.balanced_load": [("wardrop", "balanced_load")],
    "wardrop.solve_equilibrium": [("wardrop", "solve_equilibrium")],
    "wardrop.rate_cap": [("wardrop", "rate_cap_1"), ("wardrop", "rate_cap_2")],
    "solve.grid_argmax": [("_solve", "grid_argmax")],
    "solve.golden_max": [("_solve", "golden_max")],
    "solve.bisect_decreasing": [("_solve", "bisect_decreasing")],
    "monopoly.optimize_monopoly": [("monopoly", "optimize_monopoly")],
    "duopoly.best_response": [("duopoly", "best_response")],
    "duopoly.nash_iterate": [("duopoly", "nash_iterate")],
    "estimation.oracle": [("estimation", "ExactOracle.measure"),
                          ("estimation", "DiscreteClassOracle.measure")],
    "estimation.des": [("estimation", "DesOracle.measure")],
    "estimation.estimator": [("estimation", "estimate_parametric"),
                             ("estimation", "estimate_density"),
                             ("estimation", "discover_classes"),
                             ("estimation", "estimate_exponential")],
}
# the objective passed as the first argument is counted per evaluation
COUNT_EVALS = {"solve.golden_max", "solve.bisect_decreasing"}
# spans whose results feed a counter (see Tracer._after)
READ_RESULT = {"solve.grid_argmax", "duopoly.best_response", "duopoly.nash_iterate"}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total s, self s
        self.pairs = {}       # (parent name, name) -> calls
        self.counts = {}      # other counters, see _after
        self.stack = []
        self._patches = []    # (owner, attribute, original)

    # -- wrapping -------------------------------------------------------------

    def _span(self, name, fn):
        stats, pairs, stack = self.stats[name], self.pairs, self.stack
        clock = time.perf_counter
        count_evals = name in COUNT_EVALS
        after = self._after if name in READ_RESULT else None

        def traced(*args, **kwargs):
            if count_evals:
                args = (self._counting(name + ".evals", args[0]),) + args[1:]
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                key = (parent[0] if parent else None, name)
                pairs[key] = pairs.get(key, 0) + 1
                if parent is not None:
                    parent[1] += duration
            if after is not None:
                after(name, result)
            return result
        return functools.wraps(fn)(traced)

    def _counting(self, key, f):
        counts = self.counts

        def counted(x):
            counts[key] = counts.get(key, 0) + 1
            return f(x)
        return counted

    def _after(self, name, result):
        c = self.counts
        if name == "solve.grid_argmax":
            c["grid_points"] = c.get("grid_points", 0) + len(result[0])
        elif name == "duopoly.best_response":
            c["candidates"] = c.get("candidates", 0) + len(result.stationary_points)
        elif name == "duopoly.nash_iterate":
            c["rounds"] = c.get("rounds", 0) + result.iterations
            c["converged"] = c.get("converged", 0) + int(result.converged)

    def _sample_hook(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(dist, u):
            counts["arrivals"] = counts.get("arrivals", 0) + len(u)
            return fn(dist, u)
        return counted

    def install(self):
        """Wrap every function in SPANS wherever a qpk module binds it."""
        import qpk
        modules = [m for n, m in sys.modules.items()
                   if (n == "qpk" or n.startswith("qpk.")) and m is not None]
        replace = {}
        for name, targets in SPANS.items():
            for module, attr in targets:
                owner = getattr(qpk, module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._span(name, cls.__dict__[meth]))
                else:
                    original = getattr(owner, attr)
                    replace[id(original)] = (original, self._span(name, original))
        sample = qpk.estimation._sample_sensitivities
        replace[id(sample)] = (sample, self._sample_hook(sample))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics ----------------------------------------------------------------

    def metrics(self, cache_hits: int, cache_misses: int) -> dict:
        """Per-layer metrics (name -> (value, unit)) over everything traced;
        the cache counts are balanced_load's lru_cache hits and misses over
        the same calls. A ratio whose denominator is zero reads 0."""
        s, c, p = self.stats, self.counts, self.pairs
        calls = lambda n: s[n][0]
        self_ms = lambda n: s[n][2] * 1e3
        ratio = lambda a, b: a / b if b else 0.0
        inside = lambda parents, child: sum(p.get((q, child), 0) for q in parents)
        est = "estimation.estimator"
        m = {}
        for n in ("special.gamma_p", "special.gamma_p_inverse", "models.quantile",
                  "models.delay_eval", "models.validate_config", "wardrop.price_gap",
                  "wardrop.solve_equilibrium", "monopoly.optimize_monopoly",
                  "duopoly.best_response", "estimation.oracle", est, "estimation.des"):
            m[f"{n}.calls"] = (calls(n), "count")
            m[f"{n}.self_ms"] = (self_ms(n), "ms")
        for n in ("special.log_gamma", "models.cdf", "models.density",
                  "wardrop.threshold_of_rate", "wardrop.balanced_load", "wardrop.rate_cap",
                  "solve.golden_max", "solve.bisect_decreasing"):
            m[f"{n}.calls"] = (calls(n), "count")
        m["special.gamma_p_per_inverse"] = (
            ratio(inside(["special.gamma_p_inverse"], "special.gamma_p"),
                  calls("special.gamma_p_inverse")), "ratio")
        m["wardrop.balanced_load.hit_ratio"] = (
            ratio(cache_hits, cache_hits + cache_misses), "ratio")
        m["solve.grid_argmax.points"] = (c.get("grid_points", 0), "count")
        m["solve.grid_argmax.self_ms"] = (self_ms("solve.grid_argmax"), "ms")
        for n in ("solve.golden_max", "solve.bisect_decreasing"):
            m[f"{n}.evals_per_call"] = (ratio(c.get(n + ".evals", 0), calls(n)), "ratio")
        m["duopoly.best_response.candidates_per_call"] = (
            ratio(c.get("candidates", 0), calls("duopoly.best_response")), "ratio")
        m["duopoly.nash_iterate.rounds"] = (c.get("rounds", 0), "count")
        m["duopoly.nash_iterate.converged_frac"] = (
            ratio(c.get("converged", 0), calls("duopoly.nash_iterate")), "ratio")
        m[f"{est}.measures_per_call"] = (
            ratio(inside([est], "estimation.oracle") + inside([est], "estimation.des"),
                  calls(est)), "ratio")
        m["estimation.des.arrivals_per_s"] = (
            ratio(c.get("arrivals", 0), s["estimation.des"][2]), "1/s")
        return m
