import json
import math

import numpy as np
import pytest

from csdc import (Program, cli, expand_controls, frobenius_distance, parse,
                  program_to_matrix, quantum_fft_program, serialize)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.cli import main
from csdc.matrices import NotUnitaryError, format_matrix_text, read_matrix_file
from csdc.reference import dft_matrix

from conftest import SIGMA_X, random_unitary, two_bit_rows


def write_matrix(path, m):
    path.write_text(format_matrix_text(m))
    return str(path)


class TestCompileCommand:
    def test_identity_compiles_to_empty_file(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "in.txt", np.eye(4))
        out = tmp_path / "out.seo"
        assert main(["compile", inp, "-o", str(out)]) == 0
        assert out.read_text() == ""
        assert "instructions: 0" in capsys.readouterr().out

    def test_dft_input_reports_small_error(self, tmp_path, capsys):
        u = state_permutation(bit_reversal_permutation(3)) @ dft_matrix(3)
        inp = write_matrix(tmp_path / "dft.txt", u)
        out = tmp_path / "dft.seo"
        assert main(["compile", inp, "-o", str(out), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nb"] == 3
        assert report["original_dimension"] == 8
        assert report["reconstruction_error"] < 1e-10
        assert report["counts"]["CPHA"] == 3

    @pytest.mark.parametrize("flags", [[], ["--expand-controls"]], ids=["plain", "expand"])
    def test_reports_two_qubit_gates_after_expansion(self, tmp_path, capsys, rng, flags):
        inp = write_matrix(tmp_path / "in.txt", random_unitary(rng, 16))
        out = tmp_path / "out.seo"
        assert main(["compile", inp, "-o", str(out), "--report", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        expanded = expand_controls(parse(out.read_text(), nb=4))
        assert report["two_qubit_gates"] == two_bit_rows(expanded)

    def test_ragged_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 0 0 0\n1 0\n")
        assert main(["compile", str(bad), "-o", str(tmp_path / "x.seo")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["compile", str(tmp_path / "none.txt"),
                     "-o", str(tmp_path / "x.seo")]) == 2

    def test_non_unitary_exits_3(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "in.txt", np.diag([1.0, 2.0]))
        assert main(["compile", inp, "-o", str(tmp_path / "x.seo")]) == 3
        assert "deviation" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (NotUnitaryError("side matrix is off"), 3),
        (ValueError("input is not unitary, said an untyped error"), 2),
    ])
    def test_exit_code_follows_exception_type(self, tmp_path, rng, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "compile_unitary", fail)
        inp = write_matrix(tmp_path / "in.txt", random_unitary(rng, 4))
        assert main(["compile", inp, "-o", str(tmp_path / "x.seo")]) == code

    def test_program_that_misses_its_input_exits_4(self, tmp_path, rng, monkeypatch, capsys):
        # A program that is not the input's: the report is printed and the SEO
        # file is still written, then compile fails with exit 4.
        wrong = quantum_fft_program(2)
        monkeypatch.setattr(cli, "compile_unitary", lambda u, opts: wrong)
        inp = write_matrix(tmp_path / "in.txt", random_unitary(rng, 4))
        out = tmp_path / "out.seo"
        assert main(["compile", inp, "-o", str(out)]) == 4
        captured = capsys.readouterr()
        assert "reconstruction error" in captured.err
        assert "exceeds 1.0e-08" in captured.err
        assert "reconstruction_error" in captured.out
        assert parse(out.read_text(), nb=2) == wrong

    def test_option_flags_accepted(self, tmp_path, rng):
        inp = write_matrix(tmp_path / "in.txt", random_unitary(rng, 4))
        out = tmp_path / "out.seo"
        assert main(["compile", inp, "-o", str(out), "--lighten", "off",
                     "--extract-phases", "off", "--expand-controls",
                     "--perm-search", "root", "--tol", "1e-9"]) == 0
        assert out.read_text()

    def test_perm_search_over_cap_exits_2_and_non_unitary_exits_3(self, tmp_path, capsys):
        argv = ["-o", str(tmp_path / "x.seo"), "--perm-search", "root"]
        inp = write_matrix(tmp_path / "in.txt", np.eye(128))
        assert main(["compile", inp] + argv) == 2
        assert "nb <= 6, got nb=7" in capsys.readouterr().err
        bad = write_matrix(tmp_path / "bad.txt", np.diag([2.0] + [1.0] * 127))
        assert main(["compile", bad] + argv) == 3


@pytest.mark.parametrize("argv", [
    ["compile", "{tmp}/none.txt", "-o", "{tmp}/x.seo"],
    ["compile", "{tmp}/u.txt", "-o", "{tmp}/no-dir/x.seo"],
    ["decompile", "{tmp}/none.seo", "-o", "{tmp}/m.txt"],
    ["decompile", "{tmp}/p.seo", "-o", "{tmp}/no-dir/m.txt"],
    ["verify", "{tmp}/none.txt", "{tmp}/p.seo"],
    ["verify", "{tmp}/u.txt", "{tmp}/none.seo"],
])
def test_unreadable_or_unwritable_file_exits_2(tmp_path, capsys, argv):
    write_matrix(tmp_path / "u.txt", np.eye(2))
    (tmp_path / "p.seo").write_text("SIGX 0\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_tol_outside_positive_finite_exits_2(tmp_path, capsys, tol):
    inp = write_matrix(tmp_path / "in.txt", np.diag([1.0, 2.0, 1.0, 1.0]))
    out = tmp_path / "out.seo"
    seo = tmp_path / "p.seo"
    seo.write_text("SIGX 0\n")
    for argv in (["compile", inp, "-o", str(out)], ["verify", inp, str(seo)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--tol={tol}"])
        assert exc.value.code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


class TestDecompileCommand:
    def test_sigx_file(self, tmp_path):
        seo = tmp_path / "p.seo"
        seo.write_text("SIGX 0\n")
        out = tmp_path / "m.txt"
        assert main(["decompile", str(seo), "-o", str(out)]) == 0
        assert np.array_equal(read_matrix_file(str(out)), SIGMA_X)

    def test_nb_override(self, tmp_path):
        seo = tmp_path / "p.seo"
        seo.write_text("SIGX 0\n")
        out = tmp_path / "m.txt"
        assert main(["decompile", str(seo), "-o", str(out), "--nb", "2"]) == 0
        assert read_matrix_file(str(out)).shape == (4, 4)

    def test_compile_decompile_round_trip(self, tmp_path, rng):
        u = random_unitary(rng, 8)
        inp = write_matrix(tmp_path / "u.txt", u)
        seo = tmp_path / "u.seo"
        back = tmp_path / "back.txt"
        assert main(["compile", inp, "-o", str(seo)]) == 0
        assert main(["decompile", str(seo), "-o", str(back)]) == 0
        assert frobenius_distance(read_matrix_file(str(back)), u) < 1e-8

    def test_angles_that_overflow_when_summed(self, tmp_path):
        seo = tmp_path / "p.seo"
        seo.write_text("ROTY 0 1e308\nROTY 0 1e308\n")
        out = tmp_path / "m.txt"
        assert main(["decompile", str(seo), "-o", str(out)]) == 0
        twin = parse(f"ROTY 0 {2 * math.fmod(1e308, 360.0)!r}\n")
        assert np.abs(read_matrix_file(str(out)) - program_to_matrix(twin)).max() < 1e-12

    def test_repeated_bit_exits_2(self, tmp_path, capsys):
        seo = tmp_path / "p.seo"
        seo.write_text("CNOT 0 T 0\n")
        assert main(["decompile", str(seo), "-o", str(tmp_path / "m.txt")]) == 2
        assert "line 1" in capsys.readouterr().err


class TestVerifyCommand:
    def test_matching_pair(self, tmp_path, rng):
        u = random_unitary(rng, 4)
        inp = write_matrix(tmp_path / "u.txt", u)
        seo = tmp_path / "u.seo"
        assert main(["compile", inp, "-o", str(seo)]) == 0
        assert main(["verify", inp, str(seo)]) == 0

    def test_mismatch_reports_distance(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "id.txt", np.eye(2))
        seo = tmp_path / "p.seo"
        seo.write_text("SIGX 0\n")
        assert main(["verify", inp, str(seo), "--report", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["distance"] == pytest.approx(2.0)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "id.txt", np.eye(2))
        seo = tmp_path / "p.seo"
        seo.write_text("SIGX 1\n")
        assert main(["verify", inp, str(seo)]) == 2
        assert "out of range for nb=1" in capsys.readouterr().err

    def test_nb_option_overrides_matrix_dimension(self, tmp_path):
        inp = write_matrix(tmp_path / "id.txt", np.eye(4))
        seo = tmp_path / "p.seo"
        seo.write_text("")
        assert main(["verify", inp, str(seo), "--nb", "3"]) == 2

    def test_identity_verifies_against_its_empty_program(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "id.txt", np.eye(4))
        seo = tmp_path / "id.seo"
        assert main(["compile", inp, "-o", str(seo)]) == 0
        assert seo.read_text() == ""
        capsys.readouterr()
        assert main(["verify", inp, str(seo), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nb"] == 2 and report["distance"] == 0.0

    def test_padded_input_verifies_against_its_compiled_program(self, tmp_path, rng):
        inp = write_matrix(tmp_path / "u3.txt", random_unitary(rng, 3))
        seo = tmp_path / "u3.seo"
        assert main(["compile", inp, "-o", str(seo)]) == 0
        assert main(["verify", inp, str(seo)]) == 0

    def test_phase_aligned_distance_reported(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "id.txt", np.eye(2))
        seo = tmp_path / "p.seo"
        seo.write_text("PHAS 90\n")
        assert main(["verify", inp, str(seo), "--report", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["distance"] > 1
        assert report["phase_aligned_distance"] < 1e-12

    def test_phase_aligned_distance_removes_any_global_phase(self, tmp_path, capsys, rng):
        u = random_unitary(rng, 4)
        seo = tmp_path / "u.seo"
        assert main(["compile", write_matrix(tmp_path / "u.txt", u), "-o", str(seo)]) == 0
        capsys.readouterr()
        shifted = write_matrix(tmp_path / "shifted.txt", np.exp(1j * np.pi / 3) * u)
        assert main(["verify", shifted, str(seo), "--report", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["distance"] == pytest.approx(2.0)   # |1 - e^{iπ/3}| · ||u||_F
        assert report["phase_aligned_distance"] < 1e-12

    def test_phase_aligned_distance_is_bit_identical(self, tmp_path, capsys, rng):
        # rebuilt is scaled in place; the number must equal the out-of-place value
        u = random_unitary(rng, 8)
        seo = tmp_path / "u.seo"
        assert main(["compile", write_matrix(tmp_path / "u.txt", u), "-o", str(seo)]) == 0
        capsys.readouterr()
        shifted = np.exp(0.7j) * read_matrix_file(str(tmp_path / "u.txt"))
        assert main(["verify", write_matrix(tmp_path / "s.txt", shifted), str(seo),
                     "--report", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        shifted = read_matrix_file(str(tmp_path / "s.txt"))
        rebuilt = program_to_matrix(parse(seo.read_text(), nb=3))
        overlap = np.vdot(shifted, rebuilt)
        want = frobenius_distance(shifted, rebuilt * np.conj(overlap / abs(overlap)))
        assert report["phase_aligned_distance"] == want
        assert report["distance"] == frobenius_distance(shifted, rebuilt)

    def test_default_tolerance_accepts_what_compile_accepts(self, tmp_path):
        # The DFT at nb = 5 rebuilds to about 2e-10, above the unitarity
        # tolerance DEFAULT_TOL and within ROUND_TRIP_TOL.
        inp = write_matrix(tmp_path / "dft.txt", dft_matrix(5))
        seo = tmp_path / "dft.seo"
        assert main(["compile", inp, "-o", str(seo)]) == 0
        assert main(["verify", inp, str(seo)]) == 0
        # one angle off by 1e-3 degrees is still rejected
        p = parse(seo.read_text(), nb=5)
        angle = p.angle.copy()
        angle[np.flatnonzero(angle)[0]] += 1e-3
        seo.write_text(serialize(Program(5, p.kind, p.target, p.ctrl_mask, p.ctrl_val, angle)))
        assert main(["verify", inp, str(seo)]) == 1

    def test_quantum_fft_reference_verifies_against_dft(self, tmp_path):
        u = state_permutation(bit_reversal_permutation(3)) @ dft_matrix(3)
        inp = write_matrix(tmp_path / "u.txt", u)
        seo = tmp_path / "p.seo"
        seo.write_text(serialize(quantum_fft_program(3)))
        assert main(["verify", inp, str(seo)]) == 0
