import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multiagm
from multiagm import CloudRequest, QuartetParams, enumerate_cloud, fit_cloud, predict_locus, reference_set
from multiagm.cli import COMMANDS, KIND_DEFAULTS, build_parser, console_main, main
from multiagm.clouds import KIND_BITS
from multiagm.engine import DEFAULT_MAX_ITER
from multiagm.lattice import DEFAULT_FIT_TOL
from multiagm.magm import DEFAULT_ROWS
from multiagm.roots import principal_sqrt


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestFillCommands:
    def test_fill_k_shape_and_values(self, tmp_path):
        code, data = run_to_file(tmp_path, "k.csv", ["fill-k", "--b", "0.25"])
        assert code == 0
        lines = data.decode().strip().split("\n")
        assert lines[0] == "series,sigma_mask,delta_mask,gamma_mask,signb,generation,re,im,ill_conditioned,duplicate_of"
        assert len(lines) == 1 + 64
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"K+", "K-"}
        base = next(r for r in rows if r[0] == "K+" and r[1] == "0")
        assert float(base[6]) == pytest.approx(2.80121, abs=1e-5)
        assert float(base[7]) == pytest.approx(0.0, abs=1e-12)
        assert base[8] == "0"

    def test_fill_k_single_series(self, tmp_path):
        code, data = run_to_file(tmp_path, "kp.csv", ["fill-k", "--signb", "+1"])
        assert code == 0
        assert len(data.decode().strip().split("\n")) == 1 + 32

    def test_fill_f_shape(self, tmp_path):
        code, data = run_to_file(tmp_path, "f.csv", ["fill-f"])
        assert code == 0
        assert len(data.decode().strip().split("\n")) == 1 + 128

    def test_fill_z_restricted_masks(self, tmp_path):
        code, data = run_to_file(tmp_path, "zr.csv", ["fill-z-restricted"])
        assert code == 0
        rows = [line.split(",") for line in data.decode().strip().split("\n")[1:]]
        assert len(rows) == 16
        for r in rows:
            assert int(r[3]) == int(r[2]) << 1

    def test_byte_determinism(self, tmp_path):
        _, first = run_to_file(tmp_path, "a.csv", ["fill-k", "--b", "0.25"])
        _, second = run_to_file(tmp_path, "b.csv", ["fill-k", "--b", "0.25"])
        assert first == second

    def test_json_format(self, tmp_path):
        code, data = run_to_file(tmp_path, "k.json", ["fill-k", "--format", "json"])
        assert code == 0
        records = json.loads(data)
        assert len(records) == 64
        assert records[-1]["sigma_mask"] == "0"

    def test_svg_output(self, tmp_path):
        svg = tmp_path / "k.svg"
        code, _ = run_to_file(tmp_path, "k.csv", ["fill-k", "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<title>fill-k</title>" in text
        assert "<circle" in text

    def test_svg_without_finite_values_draws_no_point(self, tmp_path):
        # b = 1e300 overflows k, so both E values are NaN
        svg = tmp_path / "e.svg"
        code, _ = run_to_file(tmp_path, "e.csv", ["fill-e", "--b", "1e300", "--sigma-bits", "1", "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>\n")
        assert "<circle" not in text

    @pytest.mark.parametrize("args", [["fill-z"], ["fill-k", "--format", "json"]])
    def test_out_file_gets_the_stdout_bytes(self, args, tmp_path, capsys):
        assert main(args) == 0
        stdout = capsys.readouterr().out
        code, data = run_to_file(tmp_path, "cloud.out", args)
        assert code == 0
        assert capsys.readouterr().out == ""
        assert data == stdout.encode("ascii")

    @pytest.mark.parametrize("command", ["fill-k", "fill-e", "fill-n"])
    @pytest.mark.parametrize("sinphi", ["1e200", "1e-200"])
    def test_mean_pair_fill_ignores_sinphi(self, command, sinphi, capsys):
        # K, E and E/K never read the amplitude, so it neither moves nor flags a point
        assert main([command, "--sinphi", "0.5"]) == 0
        expected = capsys.readouterr().out
        assert main([command, "--sinphi", sinphi]) == 0
        assert capsys.readouterr().out == expected

    def test_f_fill_at_zero_mean_limit_exits_0(self, capsys):
        # b = 1 and a sigma flip at iteration 0 give a_inf == 0 exactly: a flagged NaN point
        assert main(["fill-f", "--b", "1", "--sigma-bits", "1", "--delta-bits", "1", "--max-iter", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 4
        assert all(row[6] == "nan" for row in rows if row[1] == "1")
        assert all(row[8] == "1" for row in rows if row[6] == "nan")

    def test_k_flag_instead_of_b(self, tmp_path):
        code, data = run_to_file(tmp_path, "k2.csv", ["fill-k", "--k", str(math.sqrt(0.9375)), "--signb", "+1"])
        assert code == 0
        base = data.decode().strip().split("\n")[-1].split(",")
        assert float(base[6]) == pytest.approx(2.801206084665204, rel=1e-9)

    @pytest.mark.parametrize("k", [0.5, math.sqrt(0.9375), 1 - 2**-30])
    def test_k_flag_gives_the_bytes_of_its_complement(self, k, capsys):
        # --k reaches the engine unconverted, which takes b = sqrt((1-k)(1+k)) once
        b = principal_sqrt((1 - k) * (1 + k)).real
        assert main(["fill-k", "--b", repr(b)]) == 0
        expected = capsys.readouterr().out
        assert main(["fill-k", "--k", repr(k)]) == 0
        assert capsys.readouterr().out == expected


# stdout SHA-256 of deep fills, recorded before the grid dedupe and the
# leaner quartet loop; both must leave every byte unchanged
DEEP_FILL_DIGESTS = {
    "fill-k --sigma-bits 10 --signb both": "46a6bd75c60ba4d53ccefe4cad1660a15471c875f97349d4c0149dfa8b124738",
    "fill-f --sigma-bits 4 --delta-bits 6": "a4c48f195f5084852144e5aafdde3f082e9c19f82a67895b7af1a1fa119f5aa7",
    "fill-z-restricted --delta-bits 9": "3f1b567e692e4f613cd1d08cd2d872fbdc1393bdd536ba97c7c74b1d8f28a80a",
    # recorded before the depth-first schedule walk, which must keep them
    "fill-k --sigma-bits 12 --signb both": "6d8174ab679d2c3edce7e4170d8fabeee686c1f85dd57f9e92d18d30abd22b94",
    "fill-e --sigma-bits 11": "5e56701d3f299e84d62f3fd555183ce975e5103ac4b07047877a910b395e57b1",
    "fill-n --sigma-bits 11": "f47cd931e4ba5e9237720cfcf336d0edcd300b8527a1c8ba7836359894ada21f",
    "fill-z --sigma-bits 3 --delta-bits 3 --gamma-bits 3": "47ba545c618c054d24fe148c1f70ab9b3285c236311fa10e953533c6036b78bb",
    # recorded before the sweeps stopped each node at its fixed point: at
    # these budgets most leaves reach it long before max_iter
    "fill-k --sigma-bits 12 --signb both --max-iter 48": "48295aa9cfcdbf9d01f79f0a435a7d44534cfed30fa4365ffc6c6406791c277e",
    "fill-e --sigma-bits 11 --max-iter 40": "142e5647a1aa6afdd33ad1cb406c766c6371e7ee841e83bd3ed640e01bf40a19",
    "fill-f --sigma-bits 4 --delta-bits 6 --max-iter 40": "a4c48f195f5084852144e5aafdde3f082e9c19f82a67895b7af1a1fa119f5aa7",
    # recorded before a cloud kept its points as columns and built each one on access
    "fill-k --sigma-bits 14 --signb both": "a71361fdc5cd0532d8b4c8316f477a28909d0b543ab1ac90ffdb831b6a848b70",
    # recorded before a settled F leaf finished on its difference alone: deep
    # delta trees, coinciding pairs, the minus start, a modulus near 1, and Zeta
    "fill-f --sigma-bits 5 --delta-bits 7": "8ac7fe43bc34f5c99dd753bd4cb158c57f60c71fb4673f62ebacbe5950ce27db",
    "fill-f --sinphi 1 --sigma-bits 3 --delta-bits 6": (
        "4826250e22640a12be150906c349bc519634096862094789028b3712d9b6026b"
    ),
    "fill-f --signb -1 --sigma-bits 4 --delta-bits 6 --max-iter 32": (
        "fe7c98a35fc5aa7955f3c607772468c1301f048dbd54f67623e7b4bc15d8b613"
    ),
    "fill-f --b 0.9 --sigma-bits 4 --delta-bits 6": "345cb05adfc491ef9f9b042f634ec6404cced4c9ec3f29240da940d51edb3c77",
    "fill-z --sigma-bits 3 --delta-bits 4 --gamma-bits 2 --max-iter 32": (
        "c890a95df0cfced0a50df25368e9079fc7722e19a0dc496236444f3aeb7fb631"
    ),
}


@pytest.mark.parametrize("command", sorted(DEEP_FILL_DIGESTS))
def test_deep_fill_bytes(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    assert digest == DEEP_FILL_DIGESTS[command]


# exit code and stdout SHA-256 of paths that the recorded default shapes
# reach only shallowly: they pin bytes, not verdicts (the F fit FAILs)
DEEP_PATH_DIGESTS = {
    # magm_step over 256 masks, and fit_cloud on one bare value per converged mask
    "magm-check --b 0.6 --rows 40 --mask-bits 8": (0, "f967f55317b4dcfdf6a5a5ba4fb80ba175d69795a2f414ad02a9c27c12d25ea2"),
    "verify --kind k-both --sigma-bits 10 --max-iter 32 --format json": (
        0,
        "e899f55309e4f06f0c2dce90af2d9cf3d3026056287dbac1418dfb08fc586a71",
    ),
    # the circle fit
    "verify --kind n --sigma-bits 9 --format json": (0, "5ac3b3a60fc336884a0953881ae4498954efbf3f4eb0d360400c5b68c2076fd3"),
    # quad_E_inc in the locus
    "verify --kind z-restricted --delta-bits 7 --format json": (
        0,
        "ac2a93b3387b7996b7aad87b58ce8c2043688a476c9bc53667c2b543f02442bb",
    ),
    # quad_F in the locus, and both cosets
    "verify --kind f --sigma-bits 4 --delta-bits 6 --format json": (
        1,
        "832d732851a2d97143c28371cf667b882b0bb92cf025a798b4292233afd13178",
    ),
}


@pytest.mark.parametrize("command", sorted(DEEP_PATH_DIGESTS))
def test_deep_path_bytes(command, capsys):
    code, digest = DEEP_PATH_DIGESTS[command]
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


# stdout SHA-256 of `verify --kind KIND --format json`; the report's key
# order is the field order of `FitReport`, which `_asdict` follows
VERIFY_JSON_DIGESTS = {
    "e": "a2fbc126f0c6f32db43e1f7fb7a74211f03a17f33dc1022f494bd7f42b2cf983",
    "f": "03e93a313ca270dbe06ed27476b1323b235574677379f8f80dcacc4a587e5a3f",
    "k": "6230a7be150771814a26e5d0419e630d286470bf15529b0303eef7cba6e45310",
    "k-both": "63daa19cf68ee432bd074d71b6b1869586c8d22f7dcaa8c6e68971d6fd5b7130",
    "n": "62e2ad70bc75cb19cc3d0bebd5bf101d1b7584baf119533411c26bd789b14e36",
    "z-restricted": "725eea4e6aa48515fe1a7d99e30cba276c716e941e286df544f8332811433c35",
}


@pytest.mark.parametrize("kind", sorted(VERIFY_JSON_DIGESTS))
def test_verify_json_bytes(kind, capsys):
    assert main(["verify", "--kind", kind, "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    assert digest == VERIFY_JSON_DIGESTS[kind]


def _recorded_sample() -> list:
    """First, middle and last recorded argv of each subcommand, plus the first three nonzero exits."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "verify_mix_outcomes.json"
    recorded = json.loads(path.read_text())
    by_shape: dict[str, list[str]] = {}
    for key in sorted(recorded):
        argv = key.split()
        by_shape.setdefault(" ".join(argv[:3] if argv[0] == "verify" else argv[:1]), []).append(key)
    assert len(by_shape) == 14
    keys = [k for ks in by_shape.values() for k in (ks[0], ks[len(ks) // 2], ks[-1])]
    keys += [k for k in sorted(recorded) if recorded[k][0] != 0][:3]
    return [pytest.param(k, recorded[k], id=k) for k in keys]


@pytest.mark.parametrize("command,outcome", _recorded_sample())
def test_recorded_outcome(command, outcome, capsys):
    # exit code and stdout digest recorded for the benchmark's request mix
    assert main(command.split()) == outcome[0]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == outcome[1]


class TestFlagValidation:
    def test_b_and_k_conflict(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fill-k", "--b", "0.25", "--k", "0.5"])
        assert err.value.code == 2

    def test_bits_above_iterations(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fill-k", "--sigma-bits", "25"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: sigma_bits exceeds max_iter\n"

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag,target",
        [
            ("--out", "missing/x.csv"),
            ("--out", "."),  # a directory
            ("--svg", "missing/x.svg"),
        ],
    )
    def test_unwritable_output_exits_2_naming_the_path(self, flag, target, tmp_path, capsys):
        path = tmp_path / target
        with pytest.raises(SystemExit) as err:
            main(["fill-k", flag, str(path)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: [Errno ")
        assert repr(str(path)) in err_text

    @pytest.mark.parametrize("to_file", [False, True])
    def test_unwritable_svg_writes_no_row(self, to_file, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        argv = ["fill-e", "--sigma-bits", "1", "--svg", str(tmp_path / "missing" / "x.svg")]
        with pytest.raises(SystemExit) as err:
            main(argv + (["--out", str(out)] if to_file else []))
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_unwritable_svg_keeps_an_existing_output(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"old\n")
        with pytest.raises(SystemExit) as err:
            main(["fill-k", "--out", str(out), "--svg", str(tmp_path / "missing" / "x.svg")])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"old\n"

    def test_unwritable_output_keeps_the_svg(self, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as err:
            main(["fill-e", "--sigma-bits", "1", "--svg", str(svg), "--out", str(tmp_path / "missing" / "x.csv")])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert svg.read_text(encoding="ascii").startswith("<svg ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ref", "--b", "nan"], "b must be finite, got nan"),
            (["fill-k", "--b", "inf", "--sigma-bits", "1"], "b must be finite, got inf"),
            (["fill-f", "--k=-inf"], "k must be finite, got -inf"),
            (["verify", "--kind", "k", "--b", "nan"], "b must be finite, got nan"),
            (["verify", "--kind", "e", "--sinphi", "inf"], "sinphi must be finite, got inf"),
            (["fill-e", "--sinphi", "nan"], "sinphi must be finite, got nan"),
        ],
    )
    def test_non_finite_inputs_rejected_by_name(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ref", "--b", "1"], "K(b) is infinite at b = 1+0j, k = 0+0j"),
            (["ref", "--b", "0"], "K(k) is infinite at b = 0+0j, k = 1+0j"),
            (["ref", "--k", "1"], "K(k) is infinite at b = 0+0j, k = 1+0j"),
            (["verify", "--kind", "e", "--b", "1"], "K(b) is infinite at b = 1+0j, k = 0+0j"),
            # the Landen modulus q = (1-b)/(1+b) rounds to 1 for b <= 2**-54
            (["ref", "--b", "5e-17"], "K(q) is infinite at b = 4.9999999999999999e-17, q = (1-b)/(1+b) = 1"),
        ],
    )
    def test_singular_moduli_rejected_by_value(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: logarithmic singularity: {message}\n"


    @pytest.mark.parametrize(
        "argv,message",
        [
            # (1 - b)(1 + b) overflows once |b| passes about 1.34e154
            (["ref", "--b", "1e300"], "b = 1.0000000000000001e+300+0j, k = 0+infj"),
            (["ref", "--b", "1.4e154"], "b = 1.4e+154+0j, k = 0+infj"),
            (["ref", "--k", "1e300"], "b = 0+infj, k = 1.0000000000000001e+300+0j"),
            (["verify", "--kind", "k", "--b", "1e300"], "b = 1.0000000000000001e+300+0j, k = 0+infj"),
        ],
    )
    def test_overflowing_moduli_rejected_by_value(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: overflow: the complete integrals are not finite at {message}\n"


class TestSignBitFlags:
    # the sign-bit flags each fill offers: the bits its kind reads
    FILL_BIT_FLAGS = {
        "fill-k": {"--sigma-bits"},
        "fill-f": {"--sigma-bits", "--delta-bits"},
        "fill-e": {"--sigma-bits"},
        "fill-n": {"--sigma-bits"},
        "fill-z": {"--sigma-bits", "--delta-bits", "--gamma-bits"},
        "fill-z-restricted": {"--delta-bits"},
    }

    @pytest.mark.parametrize(
        "argv",
        [["fill-k", "--delta-bits", "1"], ["fill-f", "--gamma-bits", "1"], ["fill-z-restricted", "--sigma-bits", "1"]],
    )
    def test_fill_has_no_flag_for_a_bit_it_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {argv[1]} 1\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--kind", "k", "--gamma-bits", "1"], "K reads sigma_bits only; gamma_bits must be 0"),
            (
                ["verify", "--kind", "z-restricted", "--sigma-bits", "1"],
                "Z_restricted reads delta_bits only; sigma_bits must be 0",
            ),
        ],
    )
    def test_verify_rejects_a_bit_its_kind_does_not_read_by_name(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", sorted(FILL_BIT_FLAGS))
    def test_fill_help_lists_the_bit_flags_of_its_kind(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert set(re.findall(r"--[a-z]+-bits", capsys.readouterr().out)) == self.FILL_BIT_FLAGS[command]

    @pytest.mark.parametrize("kind", tuple(KIND_BITS))
    def test_fill_bit_defaults_are_the_bits_its_kind_reads(self, kind):
        # the table holds a default for each bit the kind reads and for no other, and the fill offers those
        defaults = KIND_DEFAULTS[kind][1]
        assert [name for name in defaults if name != "sinphi"] == list(KIND_BITS[kind])
        args = vars(build_parser().parse_args(["fill-" + kind.lower().replace("_", "-")]))
        assert {name: value for name, value in args.items() if name.endswith("_bits")} == {
            name: defaults[name] for name in KIND_BITS[kind]
        }

    def test_the_defaults_table_follows_the_cloud_kinds(self):
        assert tuple(KIND_DEFAULTS) == tuple(KIND_BITS)

    def test_verify_help_lists_every_bit_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--help"])
        assert err.value.code == 0
        assert set(re.findall(r"--[a-z]+-bits", capsys.readouterr().out)) == self.FILL_BIT_FLAGS["fill-z"]


class TestVerify:
    @pytest.mark.parametrize("kind", ["k", "k-both", "f", "e", "n", "z-restricted"])
    def test_default_parameters_pass(self, kind, capsys):
        assert main(["verify", "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--kind", "f", "--sig", "1"],
            ["verify", "--kind", "z-restricted", "--sinp", "0.6"],
            # fill-z-restricted has no --sigma-bits, so a prefix match would take --signb
            ["fill-z-restricted", "--sig", "-1"],
        ],
        ids=["verify-sig", "verify-sinp", "fill-sig"],
    )
    def test_abbreviated_flags_are_refused(self, argv, capsys):
        # a flag answers to its full name only, so no prefix is silently taken for another flag
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_json_parses_strictly_with_non_finite_residuals(self, capsys):
        # at sinphi 1e-300 every F point is flagged with an infinite residual, which
        # strict JSON (RFC 8259) can only carry as null
        assert main(["verify", "--kind", "f", "--sinphi", "1e-300", "--format", "json"]) == 1

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert len(payload["points"]) == 128 == payload["flagged_excluded"]
        assert {point["residual"] for point in payload["points"]} == {None}

    def test_k_passes_at_any_sinphi(self, capsys):
        assert main(["verify", "--kind", "k", "--sinphi", "1e200"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "PASS kind=k max_residual=1.424e-14 tol=1.0e-06 excluded=0"

    def test_k_takes_a_sinphi_outside_the_amplitude_range(self, capsys):
        # K never reads the amplitude, so its locus asks nothing of sinphi, unlike F and Z_restricted
        assert main(["verify", "--kind", "k", "--sinphi", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("PASS kind=k ")

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["verify", "--kind", "k", "--tol", "1e-20"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--kind", "f", "--sinphi", "2"], "sinphi must lie in (0, 1]"),
            (["--kind", "z-restricted", "--sinphi", "-0.5"], "sinphi must lie in (0, 1]"),
            (["--kind", "f", "--sinphi", "0"], "sinphi must lie in (0, 1]"),
            (["--kind", "n", "--b", "1.5"], "E(b)/K(b) must be real for this locus, got -0.0754768+0.51214j"),
            (["--kind", "f", "--b", "1.5"], "k must be real for this locus, got 0+1.11803j"),
            (["--kind", "z-restricted", "--b", "-0.25"], "E(k)/K(k) must be real for this locus, got 0.184315+0.174158j"),
            # the kinds whose clouds read delta bits need an amplitude; K takes sinphi 2 (below)
            (["--kind", "z-restricted", "--sinphi", "2"], "sinphi must lie in (0, 1]"),
        ],
    )
    def test_rejects_inputs_without_a_real_locus(self, args, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", *args])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("tol,shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
    def test_rejects_tolerance_not_finite_and_positive(self, tol, shown, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--kind", "k", "--tol", tol])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be finite and positive, got {shown}\n"

    def test_real_k_from_negative_b_passes(self, capsys):
        assert main(["verify", "--kind", "f", "--b", "-0.25"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "PASS kind=f max_residual=4.832e-14 tol=1.0e-06 excluded=0"

    def test_no_fitted_point_fails(self):
        # modulus 1 collapses every trace, so the whole E cloud is flagged
        cloud = enumerate_cloud(CloudRequest(kind="E", params=QuartetParams(k=1.0, sinphi=0.5), sigma_bits=5))
        report = fit_cloud(cloud, predict_locus("E", reference_set(b=0.25)))
        assert (report.passed, report.worst_point, report.flagged_excluded) == (False, None, 32)

    def test_json_report(self, capsys):
        assert main(["verify", "--kind", "z-restricted", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["points"]) == 16
        assert payload["lattice"]["gen1"][1] == pytest.approx(2.2430285802876, rel=1e-10)


class TestOtherCommands:
    def test_ref_prints_residual(self, capsys):
        assert main(["ref", "--b", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "legendre residual" in out
        residual = float(out.split("legendre residual =")[1].split()[0])
        assert residual < 1e-12

    def test_ref_keeps_k_as_given(self, capsys):
        assert main(["ref", "--k", "0.5"]) == 0
        assert "\nk   = 0.5+0j\n" in capsys.readouterr().out

    def test_ref_at_a_tiny_k(self, capsys):
        # b = sqrt((1-k)(1+k)) rounds to 1, but k itself stays off the singularity
        assert main(["ref", "--k", "1e-300"]) == 0
        assert "\nK(b) = 692.16182225933358+0j\n" in capsys.readouterr().out

    def test_magm_check(self, capsys):
        assert main(["magm-check", "--mask-bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "max row deviation" in out
        assert "mask   0: converged" in out

    @pytest.mark.parametrize(
        "args,bound",
        [
            (["--rows", "-1"], "rows must lie in [0, 1023]"),
            (["--rows", "-2"], "rows must lie in [0, 1023]"),
            (["--rows", "1024", "--b", "0.5"], "rows must lie in [0, 1023]"),
            (["--mask-bits", "-1"], "mask_bits must be nonnegative"),
            (["--rows", "2", "--mask-bits", "3"], "mask_bits exceeds rows"),
        ],
    )
    def test_magm_check_rejects_out_of_range_counts(self, args, bound, capsys):
        with pytest.raises(SystemExit) as err:
            main(["magm-check", *args])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bound}\n"

    def test_magm_check_rejects_mask_bits_before_any_work(self, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("magm ran for a rejected request")

        monkeypatch.setattr(multiagm.cli, "magm_equivalence", no_work)
        monkeypatch.setattr(multiagm.cli, "magm_negative_experiment", no_work)
        with pytest.raises(SystemExit) as err:
            main(["magm-check", "--rows", "2", "--mask-bits", "3"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: mask_bits exceeds rows\n"

    def test_magm_check_rows_default_is_the_library_default(self):
        assert build_parser().parse_args(["magm-check"]).rows == DEFAULT_ROWS

    def test_magm_check_mask_bits_up_to_rows(self, capsys):
        assert main(["magm-check", "--rows", "3", "--mask-bits", "3"]) == 0
        assert capsys.readouterr().out.count("\n  mask ") == 8

    @pytest.mark.parametrize("rows", ["0", "1023"])
    def test_magm_check_row_count_limits(self, rows, capsys):
        assert main(["magm-check", "--b", "0.999999", "--rows", rows, "--mask-bits", "0"]) == 0
        assert "limit vs E/K" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,code",
    [(["ref"], 0), (["verify", "--kind", "k", "--tol", "1e-20"], 1), (["bogus"], 2)],
)
def test_console_main_exit_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["multiagm", *argv])
    with pytest.raises(SystemExit) as err:
        console_main()
    assert err.value.code == code


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this package."""
    return {**os.environ, "PYTHONPATH": str(Path(multiagm.__file__).resolve().parents[1])}


def test_closed_stdout_pipe_exits_1_quietly():
    # about 800 kB of CSV, far above a pipe buffer, so a write after the reader has gone fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "multiagm.cli", "fill-k", "--sigma-bits", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    assert lines[0].startswith(b"series,") and lines[1].startswith(b"K+,")


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the same command in a new interpreter."""
    env = _fresh_env()
    done = subprocess.run(
        [sys.executable, "-m", "multiagm.cli", *argv], capture_output=True, text=True, env=env, timeout=60, check=False
    )
    return done.returncode, done.stdout, done.stderr


def _full_parser_run(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``argv`` parsed by the parser of every command, then run."""
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [[name] for name in COMMANDS]
        + [[name, "--help"] for name in COMMANDS]
        + [
            ["fill-k", "--bogus"],
            ["fill-k", "extra"],
            ["fill-k", "--b", "x"],
            ["ref", "--b", "0.5", "--k", "0.5"],
            ["fill-k", "--sig", "3"],
            ["verify", "--kind", "q"],
            ["fill-k", "--b=-0.5"],
            ["fill-k", "--", "--b"],
            ["bogus"],
            [],
            ["-h"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_command_parser_answers_as_the_full_parser(self, argv, capsys):
        # main parses with its command's parser alone; output, errors and help must not show it
        assert _in_process(argv, capsys) == _full_parser_run(argv, capsys)

    def test_cold_ref_builds_one_parser_and_loads_no_json(self):
        code = (
            "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); from multiagm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): cli.main(['ref'])\n"
            "print('json' in sys.modules, cli.build_parser.cache_info().currsize)"
        )
        src = str(Path(multiagm.__file__).parents[1])
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "0"]

    def test_a_call_carries_nothing_to_the_next(self, capsys):
        # each command follows one that set flags it leaves unset, or one that failed
        sequence = [
            ["verify", "--kind", "f", "--sigma-bits", "2", "--delta-bits", "2"],
            ["verify", "--kind", "k"],
            ["fill-k", "--signb", "-1"],
            ["fill-k"],
            ["bogus"],
            ["verify", "--kind", "k", "--tol", "nan"],
            ["ref"],
        ]
        in_process = [_in_process(argv, capsys) for argv in sequence]
        assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 2, 0]
        for argv, result in zip(sequence, in_process):
            assert result == _fresh_process(argv), argv

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_repeats(self, argv, capsys):
        first = _in_process(argv, capsys)
        assert first[0] == 0 and first[1].startswith("usage: multiagm")
        assert _in_process(argv, capsys) == first

    def test_help_shows_the_default_constants(self, capsys):
        _, out, _ = _in_process(["verify", "--help"], capsys)
        assert f"(default {DEFAULT_MAX_ITER})" in out
        assert f"(default {DEFAULT_FIT_TOL:g})" in out
