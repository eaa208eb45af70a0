"""Command-line front end: one binary, one verb per analysis pipeline.

Output goes to stdout in one of two formats.  ``text`` is a small aligned
table; ``structured`` is one line of space-separated ``key=value`` pairs
per record, with a stable field order and all floats printed to 9 decimal
places, so downstream scripts can parse it and byte-compare runs.

Exit codes: 0 success, 1 when the solver fails (``SolverFailure``), 2 for
every other library error (``FrameError``: bad files, non-frames, non-duals,
shape clashes, numerically singular frame operators, ...) and for files the
operating system cannot open (``OSError``).  Each prints one stderr line.
A stdout closed by its reader (``fpl ... | head``) ends the run silently
with 141, the status a shell gives a process that SIGPIPE ended.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import fusion as fu
from . import potentials as pot
from .core import (
    DUAL_TOL,
    REAL,
    canonical_dual,
    cross_gramian,
    dual_family,
    is_dual,
    make_frame,
)
from .errors import DomainError, FrameError, NotADual, SolverFailure
from .grassmannian import (
    CLUSTER_TOL,
    _thread_count,
    conjecture_harness,
    exclusivity_probe,
    minimize_mu,
)
from .io import load_frame, load_fusion_frame, save_frame
from .suite import run_suite

# Exit status when stdout's reader has gone: 128 + SIGPIPE.
PIPE_CLOSED = 141
# (n, k) pairs probed when harness is run without --frame.
HARNESS_PAIRS = ((2, 3), (2, 4), (3, 4), (3, 5))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"{value.real:.9f}{value.imag:+.9f}j"
    if isinstance(value, str):
        return value
    return f"{float(value):.9f}"


def _pieces(rec: list[tuple[str, object]]) -> list[str]:
    return [f"{key}={_fmt(val)}" for key, val in rec]


def _emit(records: list[list[tuple[str, object]]], fmt: str) -> None:
    if fmt == "structured":
        for rec in records:
            print(" ".join(_pieces(rec)))
        return
    header = [key for key, _ in records[0]]
    rows = [header] + [[_fmt(val) for _, val in rec] for rec in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _matrix_pieces(prefix: str, m: np.ndarray) -> list[str]:
    """One ``prefix_i_j=value ...`` piece per row, entries formatted as _fmt
    formats them, each row in one str.format call."""
    if np.iscomplexobj(m):
        cells = (f"{{p}}_{j}={{{j}.real:.9f}}{{{j}.imag:+.9f}}j"
                 for j in range(m.shape[1]))
    else:
        cells = (f"{{p}}_{j}={{:.9f}}" for j in range(m.shape[1]))
    row = " ".join(cells)
    return [row.format(*values, p=f"{prefix}_{i}")
            for i, values in enumerate(m.tolist()) if values]


def _emit_matrix(rec: list[tuple[str, object]], prefix: str,
                 m: np.ndarray) -> None:
    """One structured line: the record, then the matrix's entries."""
    print(" ".join(_pieces(rec) + _matrix_pieces(prefix, m)))


def _print_matrix(m: np.ndarray) -> None:
    for row in np.atleast_2d(m):
        print("  ".join(_fmt(v) for v in row))


def _threads_from_env() -> int | None:
    """``FPL_THREADS`` as a thread count from 1 to the CPU count
    (:func:`~fpl.grassmannian._thread_count`); None when unset."""
    raw = os.environ.get("FPL_THREADS")
    if raw is None or not raw.strip():
        return None
    try:
        val = int(raw)
    except ValueError as exc:
        raise DomainError(f"FPL_THREADS must be an integer, got {raw!r}") from exc
    return _thread_count(val)


def _check_float_options(args) -> None:
    """Every float option (``--tol``, ``--p``, ``--eta``, ``--alpha``) must
    be a finite number >= 0; the library rejects the zeros it cannot use."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not 0.0 <= value < np.inf:
            raise DomainError(
                f"--{name} must be a finite number >= 0, got {value}")


def _cmd_potential(args) -> int:
    frame = load_frame(args.frame)
    rep = pot.frame_potential_bound(frame)
    _emit([[("value", rep.value), ("bound", rep.bound),
            ("meets_bound", rep.meets_bound)]], args.format)
    return 0


def _cmd_cross(args) -> int:
    frame = load_frame(args.frame)
    other = load_frame(args.other)
    tol = args.tol if args.tol is not None else DUAL_TOL
    gram = cross_gramian(frame, other)
    dual = is_dual(frame, other, tol)
    rec: list[tuple[str, object]] = [
        ("value", pot.cross_frame_potential(gram))]
    if dual:
        rep = pot.cross_potential_bound(gram, tol)
        rec += [("bound", rep.bound), ("meets_bound", rep.meets_bound),
                ("equality", rep.equality_within <= pot.BOUND_SLACK)]
    rec.append(("is_dual", dual))
    if args.p is not None:
        prep, const_diag = pot.pth_cross_report(gram, args.p)
        rec += [("p", args.p), ("p_value", prep.value),
                ("p_bound", prep.bound), ("p_meets_bound", prep.meets_bound),
                ("constant_diagonal", const_diag)]
    if args.eta is not None:
        srep = pot.phi_sum(gram, frame.n, args.eta)
        rec += [("eta", args.eta), ("phi_sum", srep.value),
                ("phi_sum_bound", srep.bound),
                ("phi_sum_meets_bound", srep.meets_bound)]
    if args.alpha is not None:
        profile = pot.co_equipartition_profile(gram, args.alpha)
        rec += [(f"profile_{i}", float(p)) for i, p in enumerate(profile)]
        rec += [("co_equipartitioned",
                 pot.is_co_equipartitioned(gram, args.alpha)),
                ("co_equidistributed", pot.is_co_equidistributed(gram))]
    _emit([rec], args.format)
    return 0


def _cmd_mu(args) -> int:
    frame = load_frame(args.frame)
    other = load_frame(args.other) if args.other else canonical_dual(frame)
    gram = cross_gramian(frame, other)
    rec: list[tuple[str, object]] = [
        ("mu", pot.max_offdiagonal(gram)),
        ("welch", pot.welch_constant(frame.n, frame.k))]
    if args.eta is not None:
        log_phi = pot.log_phi_offdiagonal(gram, args.eta)
        rec += [("eta", args.eta),
                ("phi_od", pot.phi_offdiagonal(gram, args.eta)),
                ("mu_sq_estimate", log_phi / args.eta),
                ("sandwich_slack",
                 float(np.log(frame.k * (frame.k - 1))) / args.eta)]
    _emit([rec], args.format)
    return 0


def _cmd_dual(args) -> int:
    frame = load_frame(args.frame)
    dual = canonical_dual(frame)
    if args.format == "structured":
        _emit_matrix([("n", dual.n), ("k", dual.k), ("field", dual.field)],
                     "entry", dual.synthesis)
    else:
        print(f"canonical dual  n={dual.n}  k={dual.k}  field={dual.field}")
        _print_matrix(dual.synthesis)
    return 0


def _cmd_family(args) -> int:
    frame = load_frame(args.frame)
    family = dual_family(frame)
    rec: list[tuple[str, object]] = [
        ("n", frame.n), ("k", frame.k),
        ("family_dim", family.dim), ("null_dim", frame.k - frame.n)]
    if not args.other:
        _emit([rec], args.format)
        return 0
    other = load_frame(args.other)
    tol = args.tol if args.tol is not None else DUAL_TOL
    params = family.parameter_of(other, tol)
    if params is None:
        raise NotADual("the second frame is not a dual of the first")
    if args.format == "structured":
        _emit_matrix(rec, "param", params)
    else:
        _emit([rec], "text")
        print("parameters:")
        _print_matrix(params)
    return 0


def _cmd_grassmannian(args) -> int:
    frame = load_frame(args.frame)
    result = minimize_mu(
        frame, seed=args.seed,
        cluster_tol=args.tol if args.tol is not None else CLUSTER_TOL,
        threads=_threads_from_env())
    _emit([[("mu_min", result.mu_min),
            ("exclusive", exclusivity_probe(frame, result)),
            ("family_dim", result.family_dim)]], args.format)
    return 0


def _cmd_fusion(args) -> int:
    ff = load_fusion_frame(args.fusion)
    if args.other:
        other = load_fusion_frame(args.other)
        _emit([[("n", ff.n), ("k", ff.k),
                ("cross", fu.cross_fusion_potential(ff, other))]], args.format)
        return 0
    tol = args.tol if args.tol is not None else fu.SUBSPACE_TOL
    rep = fu.fusion_potential(ff)
    sd = fu.structured_self_dual_check(ff, tol)
    rec: list[tuple[str, object]] = [
        ("n", ff.n), ("k", ff.k),
        ("dims", "x".join(str(d) for d in ff.dims)),
        ("value", rep.value), ("bound", rep.bound),
        ("meets_bound", rep.meets_bound),
        ("tight", fu.is_tight_fusion(ff)),
        ("self_dual_applies", sd.applies),
        ("dual_equals_self", sd.dual_matches)]
    if sd.predicted_potential is not None:
        rec.append(("predicted_cross", sd.predicted_potential))
    rec.append(("measured_cross", sd.measured_potential))
    _emit([rec], args.format)
    return 0


def _cmd_harness(args) -> int:
    if args.frame:
        frame = load_frame(args.frame)
        pairs, field = [(frame.n, frame.k)], frame.field
    else:
        pairs, field = list(HARNESS_PAIRS), REAL
    threads = _threads_from_env()
    records = []
    dumps: list[tuple[str, str]] = []
    for n, k in pairs:
        summary = conjecture_harness(n, k, args.trials, args.seed,
                                     field=field, threads=threads)
        records.append([
            ("n", n), ("k", k), ("trials", summary.trials),
            ("seed", summary.seed), ("violations", summary.violations),
            ("min_ratio", summary.min_ratio),
            ("case_a_count", summary.case_a_count)])
        for i, (fm, dm) in enumerate(summary.counterexamples):
            fpath = f"counterexample-n{n}k{k}-{i}-frame.json"
            dpath = f"counterexample-n{n}k{k}-{i}-dual.json"
            save_frame(make_frame(fm), fpath)
            save_frame(make_frame(dm), dpath)
            dumps.append((fpath, dpath))
    _emit(records, args.format)
    for fpath, dpath in dumps:
        print(f"counterexample_frame={fpath} counterexample_dual={dpath}")
    return 0


def _cmd_paper_suite(args) -> int:
    results = run_suite()
    if args.format == "structured":
        for r in results:
            print(f"check={r.name} ok={_fmt(r.ok)} {r.detail}")
    else:
        _emit([[("check", r.name), ("status", "ok" if r.ok else "FAIL"),
                ("detail", r.detail)] for r in results], "text")
        n_ok = sum(1 for r in results if r.ok)
        print(f"{n_ok}/{len(results)} checks reproduced")
    return 0 if all(r.ok for r in results) else 1


def _add_format(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("text", "structured"),
                    default="text", help="output format")


# Built once per process and reused: a parser is a web of back references,
# so one per call would leave several hundred objects of cyclic garbage.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpl",
        description="Finite-frame analysis: potentials, dual families, "
                    "coherence minimisation, fusion frames.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("potential", help="frame potential with its bound")
    p.add_argument("--frame", required=True, metavar="PATH")
    _add_format(p)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser(
        "cross", help="cross potential of a pair, with p-th / exponential "
                      "variants and column profiles")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--other", required=True, metavar="PATH")
    p.add_argument("--p", type=float, metavar="REAL")
    p.add_argument("--eta", type=float, metavar="REAL")
    p.add_argument("--alpha", type=float, metavar="REAL")
    p.add_argument("--tol", type=float, metavar="REAL")
    _add_format(p)
    p.set_defaults(handler=_cmd_cross)

    p = sub.add_parser("mu", help="largest off-diagonal Gramian magnitude")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--other", metavar="PATH",
                   help="defaults to the canonical dual")
    p.add_argument("--eta", type=float, metavar="REAL")
    _add_format(p)
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("dual", help="canonical dual frame")
    p.add_argument("--frame", required=True, metavar="PATH")
    _add_format(p)
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser(
        "family", help="dual family dimensions; with --other, recover the "
                       "parameter matrix of a given dual")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--other", metavar="PATH")
    p.add_argument("--tol", type=float, metavar="REAL")
    _add_format(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser(
        "grassmannian", help="minimise mu over the dual family")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--tol", type=float, metavar="REAL",
                   help="max-norm distance within which near-minimisers "
                        "count as one, for the exclusivity verdict "
                        f"(default {CLUSTER_TOL:g})")
    p.add_argument("--seed", type=int, default=0, metavar="INT")
    _add_format(p)
    p.set_defaults(handler=_cmd_grassmannian)

    p = sub.add_parser(
        "fusion", help="fusion potential report; with --other, the cross "
                       "fusion potential")
    p.add_argument("--fusion", required=True, metavar="PATH")
    p.add_argument("--other", metavar="PATH")
    p.add_argument("--tol", type=float, metavar="REAL")
    _add_format(p)
    p.set_defaults(handler=_cmd_fusion)

    p = sub.add_parser(
        "harness", help="random dual-pair probe of the coherence floor")
    p.add_argument("--frame", metavar="PATH",
                   help="probe this frame's (n, k); default probes "
                        + ", ".join(f"({n},{k})" for n, k in HARNESS_PAIRS))
    p.add_argument("--trials", type=int, default=1000, metavar="INT")
    p.add_argument("--seed", type=int, default=0, metavar="INT")
    _add_format(p)
    p.set_defaults(handler=_cmd_harness)

    p = sub.add_parser(
        "paper-suite", help="recompute every bundled reference value")
    _add_format(p)
    p.set_defaults(handler=_cmd_paper_suite)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_float_options(args)
        return args.handler(args)
    except BrokenPipeError:
        return PIPE_CLOSED
    except (FrameError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SolverFailure) else 2


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = PIPE_CLOSED
    if code == PIPE_CLOSED:
        # The interpreter flushes stdout again at exit; point it at devnull
        # so that flush has no closed pipe to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
