import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import fpl
from fpl import cli, errors, grassmannian
from fpl.cli import run
from fpl.core import canonical_dual, cross_gramian, dual_family, is_dual, make_frame
from fpl.grassmannian import HarnessSummary, conjecture_harness
from fpl.io import load_frame, save_frame, save_fusion_frame
from fpl.potentials import max_offdiagonal, welch_constant

from conftest import random_frame_matrix


@pytest.fixture(scope="module")
def paths(tmp_path_factory, trident, trident_flat_dual, mercedes,
          basis_plus_diag, fusion_xy_z, fusion_xy_tilted):
    base = tmp_path_factory.mktemp("cli-data")
    out = {}
    for name, frame in (("trident", trident),
                        ("flat", trident_flat_dual),
                        ("mercedes", mercedes),
                        ("bpd", basis_plus_diag),
                        ("trident_canon", canonical_dual(trident)),
                        ("bpd_canon", canonical_dual(basis_plus_diag)),
                        ("flipped", make_frame(-trident.synthesis)),
                        ("square", make_frame(np.eye(3))),
                        ("flat_face", make_frame(np.array(
                            [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))),
                        ("random_4x8_0", make_frame(random_frame_matrix(
                            np.random.default_rng(0), 4, 8, "real"))),
                        ("random_4x8_3", make_frame(random_frame_matrix(
                            np.random.default_rng(3), 4, 8, "real")))):
        p = base / f"{name}.json"
        save_frame(frame, p)
        out[name] = str(p)
    for name, ff in (("fusion_xy_z", fusion_xy_z),
                     ("fusion_tilted", fusion_xy_tilted)):
        p = base / f"{name}.json"
        save_fusion_frame(ff, p)
        out[name] = str(p)
    return out


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPotentialVerb:
    def test_structured_output_is_exact(self, capsys, paths):
        code, out, err = invoke(capsys, "potential", "--frame",
                                paths["trident"], "--format", "structured")
        assert code == 0 and err == ""
        assert out == "value=13.000000000 bound=12.500000000 meets_bound=true\n"

    def test_text_output_is_a_table(self, capsys, paths):
        code, out, _ = invoke(capsys, "potential", "--frame",
                              paths["mercedes"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["value", "bound", "meets_bound"]
        assert lines[1].split() == ["4.500000000", "4.500000000", "true"]


class TestCrossVerb:
    def test_dual_pair_fields(self, capsys, paths):
        code, out, _ = invoke(capsys, "cross", "--frame", paths["trident"],
                              "--other", paths["trident_canon"],
                              "--format", "structured")
        assert code == 0
        assert out == ("value=2.000000000 bound=2.000000000 meets_bound=true "
                       "equality=true is_dual=true\n")

    def test_flat_dual_fields(self, capsys, paths):
        code, out, _ = invoke(capsys, "cross", "--frame", paths["trident"],
                              "--other", paths["flat"],
                              "--format", "structured")
        assert code == 0
        assert out == ("value=4.000000000 bound=2.000000000 meets_bound=true "
                       "equality=false is_dual=true\n")

    def test_non_dual_pair_still_reports(self, capsys, paths):
        code, out, _ = invoke(capsys, "cross", "--frame", paths["trident"],
                              "--other", paths["flipped"],
                              "--format", "structured")
        assert code == 0
        assert out == "value=13.000000000 is_dual=false\n"

    def test_optional_groups(self, capsys, paths):
        code, out, _ = invoke(capsys, "cross", "--frame", paths["bpd"],
                              "--other", paths["bpd_canon"], "--p", "2",
                              "--eta", "1", "--alpha", "1",
                              "--format", "structured")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["p_value"] == "0.666666667"
        assert fields["p_bound"] == "0.666666667"
        assert fields["constant_diagonal"] == "true"
        assert fields["phi_sum"] == fields["phi_sum_bound"]
        assert fields["profile_0"] == "3.794661635"
        assert fields["profile_0"] == fields["profile_1"] == fields["profile_2"]
        assert fields["co_equipartitioned"] == "true"
        assert fields["co_equidistributed"] == "true"


class TestMuVerb:
    def test_defaults_to_the_canonical_dual(self, capsys, paths):
        code, out, _ = invoke(capsys, "mu", "--frame", paths["trident"],
                              "--format", "structured")
        assert code == 0
        assert out == "mu=0.333333333 welch=0.333333333\n"

    def test_eta_group(self, capsys, paths):
        code, out, _ = invoke(capsys, "mu", "--frame", paths["trident"],
                              "--eta", "100", "--format", "structured")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert set(fields) == {"mu", "welch", "eta", "phi_od",
                               "mu_sq_estimate", "sandwich_slack"}
        est = float(fields["mu_sq_estimate"])
        assert 1 / 9 <= est <= 1 / 9 + float(fields["sandwich_slack"]) + 1e-9

    def test_explicit_other(self, capsys, paths):
        code, out, _ = invoke(capsys, "mu", "--frame", paths["trident"],
                              "--other", paths["flat"],
                              "--format", "structured")
        assert code == 0
        assert out.startswith("mu=1.000000000 ")


class TestDualVerb:
    def test_structured_matrix(self, capsys, paths):
        code, out, _ = invoke(capsys, "dual", "--frame", paths["trident"],
                              "--format", "structured")
        assert code == 0
        assert out == ("n=2 k=3 field=real "
                       "entry_0_0=0.000000000 entry_0_1=0.500000000 "
                       "entry_0_2=-0.500000000 entry_1_0=0.333333333 "
                       "entry_1_1=0.333333333 entry_1_2=0.333333333\n")

    def test_text_matrix(self, capsys, paths):
        code, out, _ = invoke(capsys, "dual", "--frame", paths["trident"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "canonical dual  n=2  k=3  field=real"
        assert lines[1].split() == ["0.000000000", "0.500000000",
                                    "-0.500000000"]


class TestMatrixOutput:
    MATRICES = [
        np.array([[0.5, -1e-12, -0.0], [1.0 / 3.0, -2.5e-10, 1e6]]),
        np.array([[1 + 2j, -1e-12 - 1e-12j, 0.25j],
                  [-0.0 + 0.0j, 3.0 - 4e-11j, -1.0 / 3.0]]),
        np.zeros((2, 0)),
    ]

    @pytest.mark.parametrize("m", MATRICES)
    def test_pieces_match_fmt_entry_by_entry(self, m):
        want = [f"p_{i}_{j}={cli._fmt(m[i, j])}"
                for i in range(m.shape[0]) for j in range(m.shape[1])]
        assert " ".join(cli._matrix_pieces("p", m)) == " ".join(want)
        if m.size:
            assert any(v.endswith("=-0.000000000") or "-0.000000000j" in v
                       for v in want)

    def test_square_family_has_no_parameter_fields(self, capsys, paths):
        code, out, _ = invoke(capsys, "family", "--frame", paths["square"],
                              "--other", paths["square"],
                              "--format", "structured")
        assert code == 0
        assert out == "n=3 k=3 family_dim=0 null_dim=0\n"

    def test_complex_dual_line(self, capsys, tmp_path):
        m = np.array([[1 + 1j, -1e-12, 2.0], [0.5j, 3.0, -1e-12 - 1e-12j]])
        path = tmp_path / "complex.json"
        save_frame(make_frame(m), path)
        code, out, _ = invoke(capsys, "dual", "--frame", str(path),
                              "--format", "structured")
        assert code == 0
        g = canonical_dual(make_frame(m)).synthesis
        assert out == " ".join(
            ["n=2 k=3 field=complex"]
            + [f"entry_{i}_{j}={cli._fmt(g[i, j])}"
               for i in range(2) for j in range(3)]) + "\n"


class TestFamilyVerb:
    def test_dimensions_only(self, capsys, paths):
        code, out, _ = invoke(capsys, "family", "--frame", paths["trident"],
                              "--format", "structured")
        assert code == 0
        assert out == "n=2 k=3 family_dim=2 null_dim=1\n"

    def test_parameter_recovery_roundtrips(self, capsys, paths, trident,
                                           trident_flat_dual):
        code, out, _ = invoke(capsys, "family", "--frame", paths["trident"],
                              "--other", paths["flat"],
                              "--format", "structured")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        params = np.array([[float(fields["param_0_0"])],
                           [float(fields["param_1_0"])]])
        rebuilt = dual_family(trident).dual(params)
        np.testing.assert_allclose(rebuilt.synthesis,
                                   trident_flat_dual.synthesis, atol=1e-8)

    def test_non_dual_other_is_an_input_error(self, capsys, paths):
        code, out, err = invoke(capsys, "family", "--frame", paths["trident"],
                                "--other", paths["flipped"])
        assert code == 2
        assert out == ""
        assert "NotADual" in err


# The structured output of the first 24 frames of each size in the
# benchmark's search-real corpus, recorded while the search's LPs were still
# solved in primal form: "mu_min exclusive" per frame.
CORPUS_OUTPUT = {
    4: (
        "0.270186970 false", "0.281945238 false", "0.256744029 false",
        "0.293543349 false", "0.255111011 true", "0.300493533 true",
        "0.363093746 true", "0.274528972 false", "0.272674330 false",
        "0.306488726 false", "0.257158769 true", "0.280500422 true",
        "0.315421993 true", "0.259254144 true", "0.308805021 true",
        "0.276189243 true", "0.340583669 false", "0.285628328 true",
        "0.252309972 false", "0.345980272 false", "0.287319006 false",
        "0.276081531 true", "0.279920445 false", "0.346263968 true",
    ),
    6: (
        "0.245662990 false", "0.229550907 true", "0.232638035 true",
        "0.231757322 false", "0.244182987 false", "0.251999824 false",
        "0.238825151 true", "0.233337510 true", "0.230853208 false",
        "0.237292482 false", "0.238796248 true", "0.243788610 false",
        "0.246865371 false", "0.259553219 false", "0.223694240 true",
        "0.236722092 true", "0.237693818 false", "0.236882240 false",
        "0.245336780 true", "0.257342358 true", "0.248032516 true",
        "0.223074969 true", "0.245982789 true", "0.259161743 false",
    ),
}


class TestGrassmannianVerb:
    def test_trident(self, capsys, paths):
        code, out, _ = invoke(capsys, "grassmannian", "--frame",
                              paths["trident"], "--format", "structured")
        assert code == 0
        assert out == "mu_min=0.333333333 exclusive=true family_dim=2\n"

    def test_square_frame(self, capsys, paths):
        code, out, _ = invoke(capsys, "grassmannian", "--frame",
                              paths["square"], "--format", "structured")
        assert code == 0
        assert out == "mu_min=0.000000000 exclusive=true family_dim=0\n"

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_output_does_not_depend_on_threads(self, capsys, paths,
                                               monkeypatch, threads):
        monkeypatch.setenv("FPL_THREADS", threads)
        for name, want in (
                ("trident", "mu_min=0.333333333 exclusive=true family_dim=2\n"),
                ("square", "mu_min=0.000000000 exclusive=true family_dim=0\n")):
            code, out, _ = invoke(capsys, "grassmannian", "--frame",
                                  paths[name], "--format", "structured")
            assert code == 0
            assert out == want

    # Recorded when minimize_mu and exclusivity_probe each reached a
    # verdict, the probe's being the one printed.
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name,options,want", [
        ("flat_face", (), "mu_min=0.500000000 exclusive=false family_dim=2"),
        ("random_4x8_3", (),
         "mu_min=0.266195150 exclusive=false family_dim=16"),
        ("random_4x8_3", ("--seed", "3", "--tol", "1e-3"),
         "mu_min=0.266195150 exclusive=false family_dim=16"),
        ("random_4x8_0", (),
         "mu_min=0.299049341 exclusive=true family_dim=16"),
        ("random_4x8_0", ("--seed", "3", "--tol", "1e-3"),
         "mu_min=0.299049341 exclusive=true family_dim=16")])
    def test_recorded_verdicts(self, capsys, paths, monkeypatch, threads,
                               name, options, want):
        monkeypatch.setenv("FPL_THREADS", threads)
        code, out, err = invoke(capsys, "grassmannian", "--frame",
                                paths[name], *options, "--format",
                                "structured")
        assert (code, out, err) == (0, want + "\n", "")

    def test_recorded_text_table(self, capsys, paths):
        code, out, _ = invoke(capsys, "grassmannian", "--frame",
                              paths["flat_face"])
        assert code == 0
        assert out == ("mu_min       exclusive  family_dim\n"
                       "0.500000000  false      2\n")

    @pytest.mark.parametrize("n", sorted(CORPUS_OUTPUT))
    def test_recorded_corpus_output(self, capsys, tmp_path, n):
        for i, want in enumerate(CORPUS_OUTPUT[n]):
            m = np.random.default_rng((2205, n, i)).standard_normal((n, 2 * n))
            path = tmp_path / f"real-{n}-{i}.json"
            save_frame(make_frame(m), path)
            code, out, err = invoke(capsys, "grassmannian", "--frame",
                                    str(path), "--format", "structured")
            mu, exclusive = want.split()
            assert (code, out, err) == (
                0, f"mu_min={mu} exclusive={exclusive} family_dim={n * n}\n",
                ""), f"frame {n}/{i}"

    @pytest.mark.parametrize("case", ["zero", "nan", "fewer-than-m",
                                      "rank-deficient", "large-rho"])
    def test_uncertified_weights_keep_every_probe_column(
            self, capsys, paths, monkeypatch, case):
        # The probes then solve over all 2q columns, as before screening,
        # and print what was recorded then.
        solve = grassmannian._solve_epigraph_lp
        screen = grassmannian._probe_columns
        linprog = scipy.optimize.linprog
        calls, masks = [], []

        def corrupted(offsets, a_eq):
            t_star, l_star, weights = solve(offsets, a_eq)
            return t_star, l_star, _fallback_weights(case, weights,
                                                     l_star.size)

        def recorded(*args):
            masks.append(screen(*args))
            return masks[-1]

        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(grassmannian, "_solve_epigraph_lp", corrupted)
        monkeypatch.setattr(grassmannian, "_probe_columns", recorded)
        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        code, out, err = invoke(capsys, "grassmannian", "--frame",
                                paths["random_4x8_0"], "--format",
                                "structured")
        assert (code, out, err) == (
            0, "mu_min=0.299049341 exclusive=true family_dim=16\n", "")
        assert len(calls) == 25
        assert len(masks) == 1 and masks[0].all()


def _fallback_weights(case, weights, m):
    """Epigraph LP weights y = (y+, y-) that certify no screening."""
    q = weights.size // 2
    y = np.zeros_like(weights)
    if case == "zero":
        return y
    if case == "nan":
        return np.full_like(weights, np.nan)
    if case == "fewer-than-m":
        # m - 1 nonzero weights cannot pin the m parameters
        y[np.flatnonzero(weights)[:m - 1]] = 1.0
        return y
    if case == "rank-deficient":
        # Off-diagonal row (i, j) of a 4x8 frame lies in the 4-dimensional
        # span of F[:, i] ⊗ N[j, :] over i, so the 21 rows with j < 3 span
        # at most 12 of the m = 16 dimensions.
        j = np.nonzero(~np.eye(8, dtype=bool))[1]
        y[:q][j < 3] = 1.0
        return y / y.sum()
    # "large-rho": equal weights on every row leave rowsT s far from 0
    y[:q] = 1.0 / q
    return y


class TestFusionVerb:
    def test_orthogonal_decomposition(self, capsys, paths):
        code, out, _ = invoke(capsys, "fusion", "--fusion",
                              paths["fusion_xy_z"], "--format", "structured")
        assert code == 0
        assert out == ("n=3 k=2 dims=2x1 value=3.000000000 "
                       "bound=3.000000000 meets_bound=true tight=true "
                       "self_dual_applies=true dual_equals_self=true "
                       "predicted_cross=3.000000000 "
                       "measured_cross=3.000000000\n")

    def test_unstructured_pair_omits_the_prediction(self, capsys, paths):
        code, out, _ = invoke(capsys, "fusion", "--fusion",
                              paths["fusion_tilted"], "--format", "structured")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["self_dual_applies"] == "false"
        assert fields["dual_equals_self"] == "false"
        assert "predicted_cross" not in fields
        assert fields["measured_cross"] == "5.000000000"

    def test_cross_pairing(self, capsys, paths):
        code, out, _ = invoke(capsys, "fusion", "--fusion",
                              paths["fusion_xy_z"], "--other",
                              paths["fusion_tilted"], "--format", "structured")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert set(fields) == {"n", "k", "cross"}


# `fpl harness --trials 1000 --seed 0 --format structured`: the summary
# lines and the SHA-256 of each counterexample file it writes.
HARNESS_DEFAULT_PAIRS = [
    "n=2 k=3 trials=1000 seed=0 violations=8 min_ratio=0.364059448 "
    "case_a_count=92",
    "n=2 k=4 trials=1000 seed=0 violations=0 min_ratio=1.212738372 "
    "case_a_count=10",
    "n=3 k=4 trials=1000 seed=0 violations=0 min_ratio=1.215215939 "
    "case_a_count=28",
    "n=3 k=5 trials=1000 seed=0 violations=0 min_ratio=2.355921741 "
    "case_a_count=0",
]
HARNESS_COUNTEREXAMPLE_SHA256 = {
    "counterexample-n2k3-0-frame.json":
        "5c9d5f90b5a537837938d1cc37a4da329c63d1e40e40ea49fe3815263cf9c04e",
    "counterexample-n2k3-0-dual.json":
        "381813311601dabe71e6d5a92a9250c4522479e36d27a2dbac8ce7b199072de5",
    "counterexample-n2k3-1-frame.json":
        "b26260d7626c9c3c25a7f94d8ec52b61d06f83ae27e6bc2645ad256c07c09a93",
    "counterexample-n2k3-1-dual.json":
        "be3a5e0b1eed9eb5a896d1802e08079406f994541d73fd37e8c2dc6e09967ac7",
    "counterexample-n2k3-2-frame.json":
        "b8c64f28239d1b3354ec4838b2675bc3b9c2cf7dc6e809de98b0754539b6f8dc",
    "counterexample-n2k3-2-dual.json":
        "b30c29ae4bb3192dbd7d0a39f94544879bf0f3fbaad9924b45bf8276980dd6c8",
    "counterexample-n2k3-3-frame.json":
        "e3e4b4f1a6ec510a350903d21c748994492946b11f52e8d1b8154c9a96e063dc",
    "counterexample-n2k3-3-dual.json":
        "db03430116f1eb4da877319de3d8c9faf82177d5793d55fbf61f512cab8f0be2",
    "counterexample-n2k3-4-frame.json":
        "a8eb772971599bdae66b0c32fa25f82c8492b8b287869f796aa837ccf6acc928",
    "counterexample-n2k3-4-dual.json":
        "1a557017ff52257c975dea42d57899dce7a44850463e37e9dd327ef75055ee4d",
}


class TestHarnessVerb:
    def test_single_frame_probe(self, capsys, paths, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, "harness", "--frame", paths["square"],
                              "--trials", "50", "--format", "structured")
        assert code == 0
        assert out == ("n=3 k=3 trials=50 seed=0 violations=0 "
                       "min_ratio=inf case_a_count=0\n")

    def test_default_pairs_and_counterexample_dumps(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, "harness", "--trials", "1000",
                              "--format", "structured")
        assert code == 0
        lines = out.splitlines()
        summaries = [ln for ln in lines if ln.startswith("n=")]
        assert len(summaries) == 4
        assert summaries[0].startswith("n=2 k=3 trials=1000 seed=0 ")
        dumps = [ln for ln in lines if ln.startswith("counterexample_frame=")]
        # seed 0 produces violations at (2, 3); each dump pair must verify
        assert dumps
        for line in dumps:
            fields = dict(kv.split("=") for kv in line.split())
            f = load_frame(tmp_path / fields["counterexample_frame"])
            h = load_frame(tmp_path / fields["counterexample_dual"])
            assert is_dual(f, h)
            mu = max_offdiagonal(cross_gramian(f, h))
            assert mu < welch_constant(f.n, f.k) - 1e-9

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_default_pairs_golden_output(self, capsys, tmp_path, monkeypatch,
                                         threads):
        monkeypatch.chdir(tmp_path)
        if threads is None:
            monkeypatch.delenv("FPL_THREADS", raising=False)
        else:
            monkeypatch.setenv("FPL_THREADS", threads)
        code, out, _ = invoke(capsys, "harness", "--trials", "1000",
                              "--format", "structured")
        assert code == 0
        assert [ln for ln in out.splitlines()
                if ln.startswith("n=")] == HARNESS_DEFAULT_PAIRS
        dumps = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in tmp_path.glob("counterexample-*.json")}
        assert dumps == HARNESS_COUNTEREXAMPLE_SHA256

    def test_byte_stable_and_thread_independent(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ("harness", "--trials", "300", "--seed", "5",
                "--format", "structured")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        monkeypatch.setenv("FPL_THREADS", "3")
        _, third, _ = invoke(capsys, *args)
        assert first == second == third

    def test_complex_frame_file_probes_complex_frames(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        m = np.array([[1.0, 1j, -1.0], [0.5, 1.0, 1j]])
        save_frame(make_frame(m), tmp_path / "complex.json")
        code, out, _ = invoke(capsys, "harness", "--frame", "complex.json",
                              "--trials", "200", "--seed", "4",
                              "--format", "structured")
        assert code == 0
        want = conjecture_harness(2, 3, 200, 4, field="complex")
        real = conjecture_harness(2, 3, 200, 4)
        assert want.min_ratio != real.min_ratio
        assert out.splitlines()[0] == (
            f"n=2 k=3 trials=200 seed=4 violations={want.violations} "
            f"min_ratio={want.min_ratio:.9f} "
            f"case_a_count={want.case_a_count}")
        for line in out.splitlines()[1:]:
            name = line.split()[0].split("=")[1]
            assert load_frame(tmp_path / name).field == "complex"

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_complex_frame_golden_output(self, capsys, tmp_path, monkeypatch,
                                         threads):
        # Pinned, not compared with the library, so a wrong split of the
        # draws into real and imaginary parts cannot pass.
        monkeypatch.chdir(tmp_path)
        if threads is None:
            monkeypatch.delenv("FPL_THREADS", raising=False)
        else:
            monkeypatch.setenv("FPL_THREADS", threads)
        m = np.array([[1.0, 1j, -1.0], [0.5, 1.0, 1j]])
        save_frame(make_frame(m), tmp_path / "complex.json")
        code, out, _ = invoke(capsys, "harness", "--frame", "complex.json",
                              "--trials", "2000", "--seed", "4",
                              "--format", "structured")
        assert code == 0
        assert out.splitlines()[0] == (
            "n=2 k=3 trials=2000 seed=4 violations=0 min_ratio=1.076605650 "
            "case_a_count=39")

    @pytest.mark.parametrize("env,want", [
        ("1000000", 4), ("4", 4), ("3", 3), ("0", 1), ("-5", 1)])
    def test_thread_env_is_capped_at_the_cpu_count(self, capsys, monkeypatch,
                                                    env, want):
        # Stubbed: a huge count must never reach a real thread pool.
        seen = []

        def harness(n, k, trials, seed, *, field, threads):
            seen.append(threads)
            return HarnessSummary(n=n, k=k, trials=trials, seed=seed,
                                  violations=0, min_ratio=1.0, case_a_count=0)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli, "conjecture_harness", harness)
        monkeypatch.setenv("FPL_THREADS", env)
        code, _, _ = invoke(capsys, "harness", "--trials", "10")
        assert code == 0
        assert seen and set(seen) == {want}

    def test_invalid_thread_env_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FPL_THREADS", "many")
        code, _, err = invoke(capsys, "harness", "--trials", "10")
        assert code == 2
        assert "FPL_THREADS" in err


class TestDiagnosticsAndExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "potential", "--frame",
                                str(tmp_path / "absent.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: FileNotFoundError:")
        assert err.count("\n") == 1

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = invoke(capsys, "potential", "--frame", str(bad))
        assert code == 2
        assert err.startswith("error: FrameFileError:")

    def test_rank_deficient_input(self, capsys, tmp_path):
        bad = tmp_path / "thin.json"
        bad.write_text(json.dumps({
            "field": "real", "n": 2, "k": 3,
            "vectors": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}))
        code, _, err = invoke(capsys, "potential", "--frame", str(bad))
        assert code == 2
        assert err.startswith("error: NotAFrame:")

    def test_numerically_singular_operator(self, capsys, tmp_path):
        # The vectors span (make_frame accepts them), but S = F F* underflows
        # to a singular matrix, so the frame has no computable dual.
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({
            "field": "real", "n": 2, "k": 3,
            "vectors": [[1e-160, 0.0], [0.0, 1e-169], [0.0, 0.0]]}))
        code, out, err = invoke(capsys, "dual", "--frame", str(tiny))
        assert code == 2
        assert out == ""
        assert err == ("error: SingularOperator: "
                       "frame operator is numerically singular\n")

    @pytest.mark.parametrize("entry,error", [
        ("NaN", "FrameFileError"), ("Infinity", "FrameFileError"),
        ("true", "FrameFileError"), ("1e999", "DomainError")])
    def test_non_numeric_entries(self, capsys, tmp_path, entry, error):
        bad = tmp_path / "odd.json"
        bad.write_text('{"field": "real", "n": 2, "k": 3, "vectors": '
                       f'[[{entry}, 1.0], [1.0, 1.0], [-1.0, 1.0]]}}')
        code, out, err = invoke(capsys, "potential", "--frame", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field,entry", [
        ("real", "1" + "0" * 400), ("complex", "1" + "0" * 400),
        ("complex", "[0, -1" + "0" * 400 + "]"),
        ("real", "1" + "0" * 5000)])
    def test_integers_no_float_can_hold(self, capsys, tmp_path, field, entry):
        bad = tmp_path / "big.json"
        bad.write_text(f'{{"field": "{field}", "n": 2, "k": 3, "vectors": '
                       f'[[{entry}, 1.0], [1.0, 1.0], [-1.0, 1.0]]}}')
        code, out, err = invoke(capsys, "potential", "--frame", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: FrameFileError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb,flag,rest", [
        ("potential", "--frame",
         '"k": 3, "vectors": [[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]'),
        ("fusion", "--fusion", '"subspaces": [{"basis": [[1.0, 0.0]]}]')],
        ids=["potential", "fusion"])
    @pytest.mark.parametrize("value", ["1e400", "true", "2.9", '"2"'])
    def test_header_counts_that_are_not_integers(self, capsys, tmp_path,
                                                 verb, flag, rest, value):
        bad = tmp_path / "odd.json"
        bad.write_text(f'{{"field": "real", "n": {value}, {rest}}}')
        code, out, err = invoke(capsys, verb, flag, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: FrameFileError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000])
    def test_undecodable_files(self, capsys, tmp_path, content):
        bad = tmp_path / "odd.json"
        bad.write_bytes(content)
        code, out, err = invoke(capsys, "potential", "--frame", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: FrameFileError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,seed", [
        (("grassmannian", "--frame", "trident", "--seed", "-1"), -1),
        (("grassmannian", "--frame", "square", "--seed", "-1"), -1),
        (("harness", "--seed", "-3"), -3),
        (("harness", "--frame", "trident", "--seed", "-3"), -3)])
    def test_negative_seed(self, capsys, paths, tmp_path, monkeypatch, argv,
                           seed):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: DomainError: the seed must be >= 0, got {seed}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,option,value", [
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--eta", "inf"),
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--alpha", "inf"),
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--p", "nan"),
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--alpha", "nan"),
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--tol", "nan"),
        (("cross", "--frame", "trident", "--other", "trident_canon"),
         "--eta", "-2"),
        (("mu", "--frame", "trident"), "--eta", "nan"),
        (("mu", "--frame", "trident"), "--eta", "-inf"),
        (("grassmannian", "--frame", "trident"), "--tol", "nan"),
        (("grassmannian", "--frame", "trident"), "--tol", "-1"),
        (("grassmannian", "--frame", "trident"), "--tol", "inf"),
        (("family", "--frame", "trident", "--other", "trident_canon"),
         "--tol", "nan"),
        (("fusion", "--fusion", "fusion_xy_z"), "--tol", "-1e-3")])
    def test_float_options_must_be_finite_and_nonnegative(
            self, capsys, paths, argv, option, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, *[paths.get(a, a) for a in argv],
                                    f"{option}={value}")
        assert code == 2
        assert out == ""
        assert err == (f"error: DomainError: {option} must be a finite "
                       f"number >= 0, got {float(value)}\n")

    def test_zero_options_reach_the_library_checks(self, capsys, paths):
        code, out, err = invoke(capsys, "cross", "--frame", paths["trident"],
                                "--other", paths["trident_canon"],
                                "--eta", "0")
        assert (code, out) == (2, "")
        assert err == "error: DomainError: eta must be positive\n"

    def test_usage_errors(self, capsys):
        assert invoke(capsys, )[0] == 2
        assert invoke(capsys, "potential")[0] == 2
        assert invoke(capsys, "potential", "--no-such-flag")[0] == 2

    @pytest.mark.parametrize("verb", ["potential", "cross", "dual"])
    def test_entries_whose_potential_overflows(self, capsys, tmp_path, verb):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({
            "field": "real", "n": 2, "k": 3,
            "vectors": [[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]}))
        argv = [verb, "--frame", str(huge)]
        if verb == "cross":
            argv += ["--other", str(huge)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("error: DomainError: "
                       "entries too large: n * sigma_max^4 overflows\n")

    @pytest.mark.parametrize("cls", [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.FrameError)])
    def test_exit_code_follows_the_exception_class(self, capsys, monkeypatch,
                                                   cls):
        def fail(path):
            raise cls("reason")

        monkeypatch.setattr(cli, "load_frame", fail)
        code, out, err = invoke(capsys, "potential", "--frame", "any.json")
        assert code == (1 if cls is errors.SolverFailure else 2)
        assert out == ""
        assert err == f"error: {cls.__name__}: reason\n"

    def test_path_through_a_regular_file(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        code, out, err = invoke(capsys, "potential", "--frame",
                                str(plain / "x"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: NotADirectoryError:")
        assert err.count("\n") == 1


class TestClosedStdout:
    def test_closed_stdout_ends_silently_with_141(self, paths, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ,
               "PYTHONPATH": str(Path(fpl.__file__).resolve().parent.parent)}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fpl.cli", "harness", "--frame",
                 paths["trident"], "--trials", "2000", "--seed", "0"],
                cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE,
                env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.PIPE_CLOSED == 141
        assert proc.stderr == ""


class TestParserReuse:
    @pytest.mark.parametrize("argv", [
        ("potential", "--frame", "trident", "--format", "structured"),
        ("dual", "--frame", "trident", "--format", "structured"),
        ("cross", "--frame", "trident", "--other", "trident_canon",
         "--p", "2", "--eta", "5", "--alpha", "1"),
        ("fusion", "--fusion", "fusion_xy_z")])
    def test_calls_leave_no_cyclic_garbage(self, capsys, paths, argv):
        argv = [paths.get(a, a) for a in argv]
        invoke(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            code = run(argv)
            garbage = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert code == 0
        assert garbage == 0

    def test_a_usage_error_does_not_affect_the_next_call(self, capsys, paths):
        argv = ("potential", "--frame", paths["trident"], "--format",
                "structured")
        first = invoke(capsys, *argv)
        assert invoke(capsys, "potential", "--no-such-flag")[0] == 2
        assert invoke(capsys, "dual", "--frame", paths["trident"])[0] == 0
        assert invoke(capsys, *argv) == first


class TestBlasThreads:
    @pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
    def test_openblas_runs_one_thread_unless_told(self, preset, want):
        env = {key: val for key, val in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(fpl.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import fpl, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == f"{want}\n"

class TestPaperSuiteVerb:
    def test_structured_run_flags_the_known_divergence(self, capsys):
        code, out, _ = invoke(capsys, "paper-suite", "--format", "structured")
        assert code == 1
        lines = out.splitlines()
        assert all(ln.startswith("check=") for ln in lines)
        failing = [ln for ln in lines if " ok=false " in ln]
        assert len(failing) == 1
        assert failing[0].startswith("check=grassmannian-exclusive-trident ")

    def test_text_run_counts_reproductions(self, capsys):
        code, out, _ = invoke(capsys, "paper-suite")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["check", "status"]
        fails = [ln for ln in lines if " FAIL " in ln]
        assert len(fails) == 1
        total = len(lines) - 2  # header and summary line
        assert lines[-1] == f"{total - 1}/{total} checks reproduced"

    def test_missing_data_directory_is_an_input_error(self, tmp_path):
        # An installed copy of the package without its data directory.
        shutil.copytree(Path(fpl.__file__).resolve().parent, tmp_path / "fpl",
                        ignore=shutil.ignore_patterns("data", "__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        proc = subprocess.run([sys.executable, "-m", "fpl.cli", "paper-suite"],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: FileNotFoundError:")
        assert proc.stderr.count("\n") == 1
