"""Reproduction suite for the worked examples bundled with the package.

The reference frames and the values they are expected to produce live in
``data/`` as JSON, so the whole suite is auditable without reading code.
Each check recomputes one published quantity and compares at 1e-9 (1e-6
for the coherence minimiser, 1e-8 for subspace matches).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import fusion as fu
from . import potentials as pot
from .core import (
    Frame,
    canonical_dual,
    cross_gramian,
    frame_operator,
    is_dual,
    is_tight,
)
from .grassmannian import exclusivity_probe, minimize_mu
from .io import frame_from_payload, fusion_from_payload

VALUE_TOL = 1e-9
SEARCH_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _data(name: str):
    # Resolved from the package root, so a missing data directory is a
    # FileNotFoundError (an input error), not a ModuleNotFoundError.
    with (resources.files("fpl") / "data" / name).open("r") as fh:
        return json.load(fh)


def load_reference_frame(name: str) -> Frame:
    return frame_from_payload(_data(f"{name}.json"))


def load_reference_fusion(name: str) -> fu.FusionFrame:
    return fusion_from_payload(_data(f"{name}.json"), source=name)


class _Suite:
    def __init__(self):
        self.results: list[CheckResult] = []

    def scalar(self, name: str, got: float, want: float,
               tol: float = VALUE_TOL) -> None:
        ok = abs(got - want) <= tol
        self.results.append(CheckResult(
            name, ok, f"got={got:.9f} want={want:.9f}"))

    def matrix(self, name: str, got: np.ndarray, want: np.ndarray,
               tol: float = VALUE_TOL) -> None:
        gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        self.results.append(CheckResult(
            name, gap <= tol, f"max_entry_gap={gap:.3e}"))

    def flag(self, name: str, got: bool, want: bool) -> None:
        self.results.append(CheckResult(
            name, got == want,
            f"got={str(got).lower()} want={str(want).lower()}"))


def run_suite() -> list[CheckResult]:
    """Recompute every bundled reference value; return one result per check."""
    pub = _data("published_values.json")
    s = _Suite()

    trident = load_reference_frame("trident")
    flat = load_reference_frame("trident_flat_dual")
    mercedes = load_reference_frame("mercedes")
    bpd = load_reference_frame("basis_plus_diag")

    # Frame operators, tightness, canonical duals.
    pt = pub["trident"]
    pm = pub["mercedes"]
    pb = pub["basis_plus_diag"]
    s.matrix("operator-mercedes", frame_operator(mercedes).matrix,
             pm["operator_scale"] * np.eye(2))
    s.flag("tight-mercedes", is_tight(mercedes), True)
    s.flag("tight-trident", is_tight(trident), False)
    s.matrix("canonical-dual-trident", canonical_dual(trident).synthesis,
             np.array(pt["canonical_dual_columns"]).T)
    s.matrix("canonical-dual-mercedes", canonical_dual(mercedes).synthesis,
             pm["dual_scale"] * mercedes.synthesis)
    s.matrix("canonical-dual-basis-plus-diag", canonical_dual(bpd).synthesis,
             np.array(pb["canonical_dual_columns"]).T)

    # Duality checks.
    s.flag("dual-accepts-flat", is_dual(trident, flat), True)
    g = canonical_dual(trident)
    halved = Frame(np.column_stack([g.vector(0) / 2, g.vector(1), g.vector(2)]))
    s.flag("dual-rejects-halved", is_dual(trident, halved), False)

    # Cross-Gramians and coherence of the two published dual pairs.
    gram_g = cross_gramian(trident, g)
    gram_h = cross_gramian(trident, flat)
    s.matrix("gramian-trident-canonical", gram_g.entries,
             np.array(pt["gram_canonical_rows"]))
    s.matrix("gramian-trident-flat", gram_h.entries,
             np.array(pt["gram_flat_rows"]))
    s.scalar("mu-trident-canonical", pot.max_offdiagonal(gram_g),
             pt["mu_canonical"])
    s.scalar("mu-trident-flat", pot.max_offdiagonal(gram_h), pt["mu_flat"])

    # Frame potentials with bounds.
    rep = pot.frame_potential_bound(mercedes)
    s.scalar("potential-mercedes", rep.value, pm["potential"])
    s.scalar("potential-bound-mercedes", rep.bound, pm["potential_bound"])
    rep = pot.frame_potential_bound(trident)
    s.scalar("potential-trident", rep.value, pt["potential"])
    s.scalar("potential-bound-trident", rep.bound, pt["potential_bound"])

    # Cross potentials: canonical dual, alternate dual, sign-flipped non-dual.
    s.scalar("cross-trident-canonical",
             pot.cross_frame_potential(gram_g), pt["cross_canonical"])
    s.scalar("cross-trident-flat",
             pot.cross_frame_potential(gram_h), pt["cross_flat"])
    flipped = Frame(np.column_stack([-g.vector(0), g.vector(1), g.vector(2)]))
    s.scalar("cross-sign-flip-value",
             pot.cross_frame_potential(cross_gramian(trident, flipped)),
             float(trident.n))
    s.flag("cross-sign-flip-not-dual", is_dual(trident, flipped), False)
    scaled = pot.cross_frame_potential(cross_gramian(trident, halved))
    s.flag("cross-halved-below-floor", scaled < trident.n - VALUE_TOL, True)

    # Gramian diagonals.
    gram_b = cross_gramian(bpd, canonical_dual(bpd))
    s.matrix("gramian-basis-plus-diag", gram_b.entries,
             np.array(pb["gram_canonical_rows"]))
    s.scalar("mu-basis-plus-diag", pot.max_offdiagonal(gram_b),
             pb["mu_canonical"])
    rep = pot.gramian_diagonal_sum(gram_b)
    s.scalar("diagonal-sum-basis-plus-diag", rep.value, pb["diagonal_sum"])
    s.scalar("diagonal-bound-basis-plus-diag", rep.bound, pb["diagonal_bound"])
    s.scalar("diagonal-sum-trident-flat",
             pot.gramian_diagonal_sum(gram_h).value, pt["flat_diagonal_sum"])

    # Constant-diagonal pair values and the p-th potential equality case.
    gram_m = cross_gramian(mercedes, canonical_dual(mercedes))
    s.matrix("mercedes-pair-diagonal", np.abs(gram_m.diagonal()),
             np.full(3, pm["pair_diagonal"]))
    s.matrix("mercedes-pair-offdiagonal", np.abs(gram_m.offdiagonal()),
             np.full(6, pm["pair_offdiagonal_magnitude"]))
    s.scalar("pth-equality-mercedes", pot.pth_cross_potential(gram_m, 2.0),
             pub["pth_bound_2_3_2"])
    s.scalar("pth-equality-basis-plus-diag",
             pot.pth_cross_potential(gram_b, 2.0), pub["pth_bound_2_3_2"])
    s.scalar("pth-bound-2-3-2", pot.pth_bound(2, 3, 2.0),
             pub["pth_bound_2_3_2"])

    # Coherence floor constant against the published minima.
    s.scalar("welch-2-3", pot.welch_constant(2, 3), pub["welch_2_3"])

    # Column profile of the canonical basis-plus-diag pair.
    profile = pot.co_equipartition_profile(gram_b, 1.0)
    s.matrix("profile-basis-plus-diag", profile,
             np.full(3, pb["profile_alpha_1_component"]))
    s.flag("co-equidistributed-basis-plus-diag",
           pot.is_co_equidistributed(gram_b), True)
    s.flag("co-equidistributed-trident-flat",
           pot.is_co_equidistributed(gram_h), False)

    # Coherence minimisation over the dual families.
    pg = pub["grassmannian"]
    res_t = minimize_mu(trident)
    res_b = minimize_mu(bpd)
    s.scalar("grassmannian-mu-trident", res_t.mu_min, pg["trident_mu_min"],
             tol=SEARCH_TOL)
    s.scalar("grassmannian-mu-basis-plus-diag", res_b.mu_min,
             pg["basis_plus_diag_mu_min"], tol=SEARCH_TOL)
    s.flag("grassmannian-exclusive-trident",
           exclusivity_probe(trident, res_t), pg["trident_exclusive"])
    s.flag("grassmannian-exclusive-basis-plus-diag",
           exclusivity_probe(bpd, res_b), pg["basis_plus_diag_exclusive"])

    # Fusion frames.
    pf = pub["fusion"]
    for key, name in (("xy_z", "fusion_xy_z"),
                      ("xy_antidiag", "fusion_xy_antidiag"),
                      ("xy_tilted", "fusion_xy_tilted")):
        ff = load_reference_fusion(name)
        want = pf[key]
        rep = fu.fusion_potential(ff)
        s.scalar(f"fusion-ffp-{key}", rep.value, want["ffp"])
        if "ffp_bound" in want:
            s.scalar(f"fusion-ffp-bound-{key}", rep.bound, want["ffp_bound"])
        if "operator_rows" in want:
            s.matrix(f"fusion-operator-{key}", ff.operator,
                     np.array(want["operator_rows"]))
        dual = fu.canonical_dual_fusion(ff)
        s.scalar(f"fusion-cross-dual-{key}",
                 fu.cross_fusion_potential(ff, dual), want["cross_dual"])
        matches = all(fu.subspaces_equal(w, q)
                      for w, q in zip(ff.subspaces, dual.subspaces))
        s.flag(f"fusion-dual-self-{key}", matches, want["dual_equals_self"])
        if "dual_projection_rows" in want:
            for i, rows in enumerate(want["dual_projection_rows"]):
                s.matrix(f"fusion-dual-span-{key}-{i}",
                         dual.subspaces[i].projection(), np.array(rows),
                         tol=fu.SUBSPACE_TOL)
        if "orthonormal_basis" in want:
            s.flag(f"fusion-orthonormal-basis-{key}",
                   fu.is_orthonormal_fusion_basis(ff),
                   want["orthonormal_basis"])
    return s.results
