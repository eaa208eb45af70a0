"""Per-layer metrics from the spans of a traced pass.

Times ending in ``_s`` are seconds per CLI call of the traced pass, except
the solver figures, which are per frame (per ``minimize_mu`` call).  Self
time is a span's duration minus the spans it opened.  A layer the workload
does not use reads 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# Public potentials functions the CLI verbs call.
POTENTIALS = ("frame_potential_bound", "cross_frame_potential",
              "cross_potential_bound", "pth_cross_report", "phi_sum",
              "co_equipartition_profile", "is_co_equipartitioned",
              "is_co_equidistributed", "max_offdiagonal", "welch_constant",
              "log_phi_offdiagonal", "phi_offdiagonal")
FUSION = ("fusion_potential", "cross_fusion_potential",
          "canonical_dual_fusion")
GRASSMANNIAN_CALLS = ("grassmannian.minimize_mu",
                      "grassmannian.exclusivity_probe")

# Counters that must not read 0 on each workload; a zero means the wiring
# went blind (a binding was missed or the call moved).
EXPECTED = {
    "search-real": ("grassmannian.lp_calls_per_frame",
                    "grassmannian.minimize_mu_s",
                    "grassmannian.exclusivity_probe_s", "io.load_calls",
                    "core.make_frame_s", "core.dual_family_s"),
    "search-complex": ("grassmannian.solver_calls_per_frame",
                       "grassmannian.minimize_mu_s",
                       "grassmannian.exclusivity_probe_s", "io.load_calls",
                       "core.dual_family_s"),
    "harness": ("grassmannian.harness_s", "grassmannian.harness_rng_calls",
                "grassmannian.harness_svd_calls", "io.load_calls",
                "io.save_calls", "io.bytes_written"),
    "analysis": ("io.load_calls", "io.bytes_read", "core.make_frame_s",
                 "core.canonical_dual_s",
                 "potentials.frame_potential_bound_calls",
                 "fusion.structured_self_dual_check_s", "suite.run_suite_s",
                 "suite.grassmannian_s", "grassmannian.lp_calls_per_frame",
                 "cli.self_ms_p50"),
}
# Metrics of the complex surrogate path, reported on search-complex only:
# no other workload runs that path, and search-complex is left out of
# BENCHMARK.json because the path's output misses its check on some seeds.
COMPLEX_PATH = ("grassmannian.lbfgs_calls_per_frame", "grassmannian.lbfgs_nfev",
                "grassmannian.lbfgs_s", "grassmannian.nm_calls_per_frame",
                "grassmannian.nm_nfev", "grassmannian.nm_s",
                "grassmannian.solver_calls_per_frame")
# Solver calls per search frame at the commit that defined the benchmark.
SEED_COUNTS = {"search-real": {"scipy.linprog": 25},
               "search-complex": {"L-BFGS-B": 32, "Nelder-Mead": 8}}

UNITS = {"_calls": "count", "_per_frame": "count", "_iterations": "count",
         "_nfev": "count", "_failed": "count", "_frac": "ratio",
         "_speedup": "ratio", "_ms_p50": "ms", "bytes_": "B", "_per_s": "1/s",
         "_s": "s"}


def unit_of(name: str) -> str:
    leaf = name.split(".", 1)[1]
    for suffix, unit in UNITS.items():
        if leaf.endswith(suffix) or leaf.startswith(suffix):
            return unit
    raise KeyError(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def solver_counts(spans) -> dict[int, dict[str, int]]:
    """Per CLI call: linprog calls, and minimize calls split by method."""
    counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s.name == "scipy.linprog":
            counts[s.call]["scipy.linprog"] += 1
        elif s.name == "scipy.minimize":
            counts[s.call][s.attrs["method"]] += 1
    return counts


def per_layer(spans, traced, untraced) -> dict[str, float]:
    """All per-layer metrics; ``traced``/``untraced`` are the two passes'
    call results (same calls, same order)."""
    calls = len(traced)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, attr=None):
        return sum(s.attrs.get(attr, 0) if attr else s.seconds
                   for s in by_name[name])

    def per_call(name):
        return _ratio(total(name), calls)

    frames = len(by_name["grassmannian.minimize_mu"])
    lp = by_name["scipy.linprog"]
    minimize = defaultdict(list)
    for s in by_name["scipy.minimize"]:
        minimize[s.attrs["method"]].append(s)
    m = {
        "grassmannian.lp_calls_per_frame": _ratio(len(lp), frames),
        "grassmannian.lp_s": _ratio(total("scipy.linprog"), frames),
        "grassmannian.lp_iterations": _ratio(total("scipy.linprog", "nit"),
                                             frames),
        "grassmannian.lp_failed": sum(not s.attrs["success"] for s in lp),
    }
    for short, method in (("lbfgs", "L-BFGS-B"), ("nm", "Nelder-Mead")):
        group = minimize[method]
        m[f"grassmannian.{short}_calls_per_frame"] = _ratio(len(group), frames)
        m[f"grassmannian.{short}_nfev"] = _ratio(
            sum(s.attrs["nfev"] for s in group), frames)
        m[f"grassmannian.{short}_s"] = _ratio(
            sum(s.seconds for s in group), frames)
    m["grassmannian.solver_calls_per_frame"] = _ratio(
        len(lp) + len(by_name["scipy.minimize"]), frames)
    for name in GRASSMANNIAN_CALLS:
        m[f"{name}_s"] = _ratio(sum(s.self_s for s in by_name[name]), frames)
    m["grassmannian.minmax_problem_s"] = _ratio(
        total("grassmannian.minmax_problem"), frames)
    searches = [r for r in traced if r.call.argv[0] == "grassmannian"]
    m["grassmannian.exclusive_frac"] = _ratio(
        sum(" exclusive=true " in r.out for r in searches), len(searches))

    m.update(_harness(by_name["grassmannian.conjecture_harness"], traced,
                      untraced))

    loads = [s for name, group in by_name.items()
             if name.startswith(("io.load_", "io.frame_from", "io.fusion_from"))
             for s in group
             if not (s.parent and s.parent.name.startswith("io."))]
    saves = by_name["io.save_frame"] + by_name["io.save_fusion_frame"]
    m.update({
        "io.load_calls": _ratio(len(loads), calls),
        "io.load_s": _ratio(sum(s.seconds for s in loads), calls),
        "io.bytes_read": _ratio(sum(s.attrs.get("bytes", 0) for s in loads),
                                calls),
        "io.save_calls": _ratio(len(saves), calls),
        "io.save_s": _ratio(sum(s.seconds for s in saves), calls),
        "io.bytes_written": _ratio(sum(s.attrs["bytes"] for s in saves),
                                   calls),
        "core.make_frame_s": per_call("core.make_frame"),
        "core.canonical_dual_s": per_call("core.canonical_dual"),
        "core.dual_family_s": per_call("core.dual_family"),
    })
    for fn in POTENTIALS:
        m[f"potentials.{fn}_calls"] = _ratio(
            len(by_name[f"potentials.{fn}"]), calls)
        m[f"potentials.{fn}_s"] = per_call(f"potentials.{fn}")
    for fn in FUSION:
        m[f"fusion.{fn}_s"] = per_call(f"fusion.{fn}")
    m["fusion.structured_self_dual_check_s"] = _ratio(
        sum(s.self_s for s in by_name["fusion.structured_self_dual_check"]),
        calls)

    suite = {id(s) for s in by_name["suite.run_suite"]}
    m["suite.run_suite_s"] = _ratio(
        sum(s.self_s for s in by_name["suite.run_suite"]), calls)
    m["suite.grassmannian_s"] = _ratio(
        sum(s.seconds for s in spans
            if s.name in GRASSMANNIAN_CALLS and id(s.parent) in suite), calls)
    roots = by_name["cli.run"]
    m["cli.self_ms_p50"] = (1e3 * statistics.median(s.self_s for s in roots)
                            if roots else 0.0)
    m["trace.overhead_frac"] = (sum(r.seconds for r in traced)
                                / sum(r.seconds for r in untraced) - 1.0)
    return m


def _harness(spans, traced, untraced) -> dict[str, float]:
    threads = {i: r.call.threads for i, r in enumerate(traced)}
    single = [s for s in spans if threads[s.call] == 1]
    count = len(spans)
    m = {
        "grassmannian.harness_s": _ratio(sum(s.seconds for s in spans), count),
        "grassmannian.harness_self_s": _ratio(
            sum(s.seconds - s.attrs.get("rng_s", 0.0) - s.attrs.get("svd_s", 0.0)
                for s in single), len(single)),
    }
    for short in ("rng", "svd"):
        m[f"grassmannian.harness_{short}_calls"] = _ratio(
            sum(s.attrs.get(f"{short}_calls", 0) for s in spans), count)
        m[f"grassmannian.harness_{short}_s"] = _ratio(
            sum(s.attrs.get(f"{short}_s", 0.0) for s in spans), count)
    # Throughput per thread setting comes from the untraced pass.
    rate = {}
    for t in (1, 2):
        runs = [r for r in untraced
                if r.call.argv[0] == "harness" and r.call.threads == t]
        rate[t] = _ratio(sum(r.call.frames for r in runs),
                         sum(r.seconds for r in runs))
    m["grassmannian.harness_1t_trials_per_s"] = rate[1]
    m["grassmannian.harness_2t_trials_per_s"] = rate[2]
    m["grassmannian.harness_thread_speedup"] = _ratio(rate[2], rate[1])
    return m
