"""The four workloads: their inputs, their call mix and their output checks.

A workload writes its input files into the current directory, then hands
out the CLI calls of cycle c.  Every cycle is the same mix of call kinds;
only the search workloads move to fresh frames from cycle to cycle.  The
checks compare what ``fpl`` printed with :mod:`reference`, computed once
per distinct input and never inside a timed region.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

import reference

HERE = Path(__file__).resolve().parent
# Seed of the fixed corpus of real search frames whose `exclusive` values
# were recorded, with the certificate's verdict, in EXCLUSIVE_TABLE.
CORPUS_SEED = 2205
CORPUS_SIZE = 24
EXCLUSIVE_TABLE = HERE / "search_real_exclusive.json"
REAL_SHAPES = ((4, 8), (6, 12), (8, 16))
COMPLEX_SHAPES = ((2, 3), (3, 5), (4, 6))
# Frames per complex shape in one run; cycle c uses frame c mod this, so
# each frame is called again every few cycles.  Real search uses the whole
# corpus in an order the seed draws, so that which frames a run reaches
# moves its medians little.
COMPLEX_INPUTS = 4
# mu_min of the complex path must lie in [lb - 1e-9, lb + COMPLEX_TOL].
COMPLEX_TOL = 1e-4
# Harness shapes with trials per call, each run at FPL_THREADS=1 and 2.
HARNESS_SHAPES = ((2, 3, 3000), (3, 5, 3000), (8, 16, 1500))
MAX_COUNTEREXAMPLES = 5
# Reference frames the paper-suite verb loads from the package data.
SUITE_FRAMES = 7
SUITE_CHECKS = 55
SUITE_EXPECTED_FAIL = "grassmannian-exclusive-trident"


@dataclass(frozen=True)
class Call:
    kind: str                 # what the latency statistics group by
    argv: tuple[str, ...]
    frames: int               # frames the call takes as input
    key: tuple                # identity of the input, for the reference cache
    threads: int = 2          # FPL_THREADS while the call runs
    exit_code: int = 0


def frame_digest(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:16]


def write_frame(path: str, m: np.ndarray) -> None:
    if np.iscomplexobj(m):
        cols = [[[float(z.real), float(z.imag)] for z in col] for col in m.T]
    else:
        cols = [[float(x) for x in col] for col in m.T]
    payload = {"field": "complex" if np.iscomplexobj(m) else "real",
               "n": m.shape[0], "k": m.shape[1], "vectors": cols}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def read_frame(path: str) -> np.ndarray:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    cols = payload["vectors"]
    if payload["field"] == "complex":
        return np.array([[complex(*z) for z in col] for col in cols]).T
    return np.array(cols, dtype=float).T


def write_fusion(path: str, bases: list[np.ndarray]) -> None:
    payload = {"n": bases[0].shape[0], "field": "real",
               "subspaces": [{"basis": b.T.tolist()} for b in bases]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def corpus_frame(n: int, index: int) -> np.ndarray:
    return np.random.default_rng((CORPUS_SEED, n, index)).standard_normal(
        (n, 2 * n))


def random_dual(rng: np.random.Generator, f: np.ndarray,
                scale: float) -> np.ndarray:
    """A non-canonical dual G + L N* of F."""
    null = scipy.linalg.null_space(f)
    shape = (f.shape[0], null.shape[1])
    l = rng.standard_normal(shape)
    if np.iscomplexobj(f):
        l = (l + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return reference.canonical_dual(f) + scale * l @ null.conj().T


def parse_records(out: str) -> list[dict[str, str]]:
    return [dict(tok.split("=", 1) for tok in line.split())
            for line in out.splitlines() if line.strip()]


def _same(got: str, want) -> bool:
    if isinstance(want, (bool, np.bool_)):
        return got == ("true" if want else "false")
    if isinstance(want, (int, np.integer)):
        return got == str(int(want))
    if isinstance(want, str):
        return got == want
    value = complex(got) if isinstance(want, complex) else float(got)
    return abs(value - want) <= 1e-9 * max(1.0, abs(want))


def compare(record: dict[str, str], want: dict) -> str | None:
    """None when every field is present, in order, and agrees."""
    if list(record) != list(want):
        return f"fields {list(record)[:6]}... differ from {list(want)[:6]}..."
    bad = [k for k, v in want.items() if not _same(record[k], v)]
    if bad:
        k = bad[0]
        return f"{len(bad)} fields differ, first {k}={record[k]} want {want[k]}"
    return None


class Workload:
    """Base: a reference cache and the default post-call hook."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self._refs: dict[tuple, object] = {}

    def cached(self, key: tuple, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def write_inputs(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Call]:
        raise NotImplementedError

    def after(self, call: Call, out: str) -> str | None:
        """Runs right after a call, outside its timing."""
        return None

    def check(self, call: Call, out: str) -> str | None:
        raise NotImplementedError


def _grassmannian(kind: str, path: str, key: tuple) -> Call:
    return Call(kind, ("grassmannian", "--frame", path, "--format",
                       "structured"), 1, key)


class SearchReal(Workload):
    name = "search-real"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.shapes = REAL_SHAPES[:1] if smoke else REAL_SHAPES
        table = json.loads(EXCLUSIVE_TABLE.read_text(encoding="utf-8"))
        self.recorded = {int(n): rows for n, rows in table["frames"].items()}
        rng = np.random.default_rng(seed)
        self.order = {n: rng.permutation(CORPUS_SIZE) for n, _ in self.shapes}

    def write_inputs(self) -> None:
        for n, _ in self.shapes:
            for i in self.order[n]:
                write_frame(f"real-{n}-{i}.json", corpus_frame(n, i))

    def cycle(self, c: int) -> list[Call]:
        calls = []
        for n, k in self.shapes:
            i = int(self.order[n][c % CORPUS_SIZE])
            calls.append(_grassmannian(f"grassmannian real {n}x{k}",
                                       f"real-{n}-{i}.json", ("real", n, i)))
        return calls

    def check(self, call: Call, out: str) -> str | None:
        _, n, i = call.key
        f = corpus_frame(n, i)
        row = self.recorded[n][i]
        if row["digest"] != frame_digest(f):
            return f"corpus frame {n}/{i} no longer matches the recorded one"
        mu = self.cached(call.key, lambda: reference.real_search(f)[0])
        rec = parse_records(out)
        if len(rec) != 1:
            return f"expected one record, got {len(rec)}"
        rec = rec[0]
        if abs(float(rec["mu_min"]) - mu) > 1e-6:
            return f"mu_min={rec['mu_min']} but the reference LP gives {mu:.9f}"
        if rec["exclusive"] != ("true" if row["exclusive"] else "false"):
            return f"exclusive={rec['exclusive']} differs from the recorded value"
        if rec["family_dim"] != str(n * n):  # n (k - n) with k = 2n
            return f"family_dim={rec['family_dim']}"
        return None


class SearchComplex(Workload):
    name = "search-complex"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.shapes = COMPLEX_SHAPES[:1] if smoke else COMPLEX_SHAPES

    def frame(self, n: int, k: int, i: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, n, k, i))
        return (rng.standard_normal((n, k))
                + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)

    def write_inputs(self) -> None:
        for n, k in self.shapes:
            for i in range(COMPLEX_INPUTS):
                write_frame(f"complex-{n}x{k}-{i}.json", self.frame(n, k, i))

    def cycle(self, c: int) -> list[Call]:
        i = c % COMPLEX_INPUTS
        return [_grassmannian(f"grassmannian complex {n}x{k}",
                              f"complex-{n}x{k}-{i}.json", ("complex", n, k, i))
                for n, k in self.shapes]

    def check(self, call: Call, out: str) -> str | None:
        _, n, k, i = call.key
        lb, _ = self.cached(
            call.key, lambda: reference.complex_bracket(self.frame(n, k, i)))
        rec = parse_records(out)
        if len(rec) != 1:
            return f"expected one record, got {len(rec)}"
        mu = float(rec[0]["mu_min"])
        if not lb - 1e-9 <= mu <= lb + COMPLEX_TOL:
            return (f"mu_min={mu:.9f} outside [lb - 1e-9, lb + {COMPLEX_TOL}]"
                    f" with certified lb={lb:.9f}")
        if rec[0]["family_dim"] != str(n * (k - n)):
            return f"family_dim={rec[0]['family_dim']}"
        return None


class Harness(Workload):
    name = "harness"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.harness_seed = int(rng.integers(2 ** 31))
        self.shapes = [(n, k, trials // 10 if smoke else trials)
                       for n, k, trials in HARNESS_SHAPES]
        self.first_output: dict[tuple, str] = {}

    def write_inputs(self) -> None:
        rng = np.random.default_rng((self.seed, 1))
        for n, k, _ in self.shapes:
            write_frame(f"shape-{n}x{k}.json", rng.standard_normal((n, k)))

    def cycle(self, c: int) -> list[Call]:
        return [Call(f"harness {n}x{k} threads={threads}",
                     ("harness", "--frame", f"shape-{n}x{k}.json", "--trials",
                      str(trials), "--seed", str(self.harness_seed),
                      "--format", "structured"),
                     trials, ("harness", n, k, trials), threads)
                for n, k, trials in self.shapes for threads in (1, 2)]

    def after(self, call: Call, out: str) -> str | None:
        # Every repeat, at either thread count, must print the same bytes;
        # the counterexample files of the first one are checked here,
        # before the next call overwrites them.
        first = self.first_output.setdefault(call.key, out)
        if out != first:
            return "output differs from an earlier call on the same input"
        if out is not first:
            return None
        records = parse_records(out)
        pairs = [r for r in records if "counterexample_frame" in r]
        expected = min(int(records[0]["violations"]), MAX_COUNTEREXAMPLES)
        if len(pairs) != expected:
            return f"{len(pairs)} counterexample pairs, expected {expected}"
        for r in pairs:
            f = read_frame(r["counterexample_frame"])
            h = read_frame(r["counterexample_dual"])
            if not reference.dual_pair_below_floor(f, h):
                return f"{r['counterexample_frame']} is not a dual pair below the floor"
        return None

    def check(self, call: Call, out: str) -> str | None:
        _, n, k, trials = call.key
        want = self.cached(call.key, lambda: reference.harness(
            n, k, trials, self.harness_seed))
        rec = parse_records(out)[0]
        head = {"n": str(n), "k": str(k), "trials": str(trials),
                "seed": str(self.harness_seed)}
        if any(rec.get(key) != val for key, val in head.items()):
            return f"record header {rec} does not echo the input"
        for key in ("violations", "case_a_count"):
            if int(rec[key]) != want[key]:
                return f"{key}={rec[key]} but the reference gives {want[key]}"
        if abs(float(rec["min_ratio"]) - want["min_ratio"]) > 1e-9:
            return f"min_ratio={rec['min_ratio']} want {want['min_ratio']:.9f}"
        return None


class Analysis(Workload):
    name = "analysis"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        n, k = (8, 32) if smoke else (64, 512)
        self.real = rng.standard_normal((n, k))
        self.real_dual = random_dual(rng, self.real, 0.05)
        n, k = (4, 8) if smoke else (16, 64)
        c = (rng.standard_normal((n, k))
             + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
        self.cplx = c
        self.cplx_dual = random_dual(rng, c, 0.05)
        n, k, d = (6, 8, 2) if smoke else (16, 64, 3)
        self.fusion = [np.linalg.qr(rng.standard_normal((n, d)))[0]
                       for _ in range(k)]
        self.other = [np.linalg.qr(rng.standard_normal((n, d)))[0]
                      for _ in range(k)]

    def write_inputs(self) -> None:
        write_frame("real.json", self.real)
        write_frame("real-dual.json", self.real_dual)
        write_frame("complex.json", self.cplx)
        write_frame("complex-dual.json", self.cplx_dual)
        write_fusion("fusion.json", self.fusion)
        write_fusion("fusion-other.json", self.other)

    def cycle(self, c: int) -> list[Call]:
        fmt = ("--format", "structured")
        calls = []
        for field, frame, dual in (("real", "real.json", "real-dual.json"),
                                   ("complex", "complex.json",
                                    "complex-dual.json")):
            calls += [
                Call(f"potential {field}", ("potential", "--frame", frame)
                     + fmt, 1, ("potential", field)),
                Call(f"cross {field}", ("cross", "--frame", frame, "--other",
                                        dual, "--p", "2", "--eta", "5",
                                        "--alpha", "1") + fmt,
                     2, ("cross", field)),
                Call(f"dual {field}", ("dual", "--frame", frame) + fmt,
                     1, ("dual", field)),
                Call(f"family {field}", ("family", "--frame", frame,
                                         "--other", dual) + fmt,
                     2, ("family", field)),
            ]
        calls += [
            Call("mu real", ("mu", "--frame", "real.json", "--eta", "10")
                 + fmt, 1, ("mu", "real")),
            Call("mu complex", ("mu", "--frame", "complex.json", "--other",
                                "complex-dual.json", "--eta", "10") + fmt,
                 2, ("mu", "complex")),
            Call("fusion", ("fusion", "--fusion", "fusion.json") + fmt,
                 1, ("fusion",)),
            Call("fusion cross", ("fusion", "--fusion", "fusion.json",
                                  "--other", "fusion-other.json") + fmt,
                 2, ("fusion-cross",)),
            Call("paper-suite", ("paper-suite",) + fmt, SUITE_FRAMES,
                 ("paper-suite",), exit_code=1),
        ]
        return calls

    def _want(self, key: tuple) -> dict:
        verb, field = (key + ("",))[:2]
        f, h = ((self.real, self.real_dual) if field == "real"
                else (self.cplx, self.cplx_dual))
        if verb == "potential":
            return reference.potential(f)
        if verb == "cross":
            return reference.cross(f, h, 2.0, 5.0, 1.0)
        if verb == "mu":
            return reference.mu(f, None if field == "real" else h, 10.0)
        if verb == "dual":
            g = reference.canonical_dual(f)
            want = {"n": g.shape[0], "k": g.shape[1], "field": field}
            want.update({f"entry_{i}_{j}": g[i, j]
                         for i in range(g.shape[0]) for j in range(g.shape[1])})
            return want
        if verb == "fusion":
            if not reference.generic_subspaces(self.fusion):
                raise RuntimeError("generated fusion frame is not generic")
            return reference.fusion(self.fusion)
        if verb == "fusion-cross":
            return reference.cross_fusion(self.fusion, self.other)
        raise KeyError(key)

    def check(self, call: Call, out: str) -> str | None:
        records = parse_records(out)
        verb = call.key[0]
        if verb == "paper-suite":
            return self._check_suite(records)
        if len(records) != 1:
            return f"expected one record, got {len(records)}"
        if verb == "family":
            return self._check_family(call.key[1], records[0])
        return compare(records[0], self.cached(
            call.key, lambda: self._want(call.key)))

    def _check_family(self, field: str, rec: dict[str, str]) -> str | None:
        # The parameter matrix depends on fpl's choice of null basis N, but
        # P = (H - G) N for an orthonormal N, so P P* = (H - G)(H - G)*.
        f, h = ((self.real, self.real_dual) if field == "real"
                else (self.cplx, self.cplx_dual))
        n, k = f.shape
        head = {"n": n, "k": k, "family_dim": n * (k - n), "null_dim": k - n}
        bad = compare({key: rec[key] for key in head}, head)
        if bad:
            return bad
        params = np.array([[complex(rec[f"param_{i}_{j}"])
                            for j in range(k - n)] for i in range(n)])
        if len(rec) != len(head) + params.size:
            return f"{len(rec)} fields, want {len(head) + params.size}"
        d = h - reference.canonical_dual(f)
        gap = np.max(np.abs(params @ params.conj().T - d @ d.conj().T))
        tol = 1e-9 * (1.0 + np.abs(params).sum(axis=1).max())
        if gap > tol:
            return f"P P* differs from (H - G)(H - G)* by {gap:.2e}"
        return None

    @staticmethod
    def _check_suite(records: list[dict[str, str]]) -> str | None:
        failed = [r.get("check") for r in records if r.get("ok") != "true"]
        if len(records) != SUITE_CHECKS or failed != [SUITE_EXPECTED_FAIL]:
            return (f"{len(records) - len(failed)}/{len(records)} checks ok, "
                    f"failing {failed}; want {SUITE_CHECKS - 1}/{SUITE_CHECKS}"
                    f" failing only {SUITE_EXPECTED_FAIL}")
        return None


WORKLOADS = {w.name: w for w in (SearchReal, SearchComplex, Harness, Analysis)}
