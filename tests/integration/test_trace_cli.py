"""Integration tests for ``repro trace`` and ``repro bench-membw``."""

import json

import pytest

from repro.cli import main

KERNEL = """
program kern
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1], B[i]) }
for i = 1, N - 1 { B[i] = g(A[i + 1]) }
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kern.loop"
    path.write_text(KERNEL)
    return str(path)


class TestTraceExport:
    def test_binary_then_info_then_import(self, kernel_file, tmp_path, capsys):
        out = tmp_path / "kern.ast"
        assert (
            main(
                ["trace", "export", kernel_file, "-o", str(out), "-p", "N=24"]
            )
            == 0
        )
        exported = capsys.readouterr().out
        assert "binary" in exported and "fingerprint" in exported
        assert out.exists()

        assert main(["trace", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "kern/new" in info
        assert '"unit": "bytes"' in info
        assert "MISSING" not in info  # exported streams carry geometry

        assert main(["trace", "import", str(out)]) == 0
        captured = capsys.readouterr()
        assert "L1 misses" in captured.out
        assert "effective bandwidth" in captured.out
        assert "S501" not in captured.err

    def test_csv_export_roundtrips_fingerprint(
        self, kernel_file, tmp_path, capsys
    ):
        binary = tmp_path / "kern.ast"
        csv = tmp_path / "kern.csv"
        main(["trace", "export", kernel_file, "-o", str(binary), "-p", "N=24"])
        fp_binary = capsys.readouterr().out.split("fingerprint ")[1].strip()
        main(["trace", "export", kernel_file, "-o", str(csv), "-p", "N=24"])
        out = capsys.readouterr().out
        assert "csv" in out  # .csv suffix auto-selects the CSV format
        assert fp_binary in out  # same trace, same content hash

    def test_export_source_file_requires_params(self, kernel_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "export", kernel_file, "-o", str(tmp_path / "x.ast")])

    def test_export_registry_app(self, tmp_path, capsys):
        out = tmp_path / "adi.ast"
        assert (
            main(
                [
                    "trace", "export", "adi", "-o", str(out),
                    "-p", "N=32", "--steps", "1", "--level", "noopt",
                ]
            )
            == 0
        )
        assert "accesses" in capsys.readouterr().out
        assert out.exists()


class TestTraceImport:
    def test_foreign_csv_warns_s501_and_simulates(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.csv"
        # a bare address list from some other tracer: no metadata at all
        foreign.write_text(
            "\n".join(str(i * 8) for i in range(4096)) + "\n"
        )
        assert main(["trace", "import", str(foreign)]) == 0
        captured = capsys.readouterr()
        assert "S501" in captured.err
        assert "L1 misses" in captured.out

    def test_reuse_histogram_flag(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("0\n8\n16\n0\n8\n16\n")
        assert main(["trace", "import", str(foreign), "--reuse"]) == 0
        out = capsys.readouterr().out
        assert "3 reuses" in out
        assert "3 cold" in out
        # the histogram, what it predicts at the machine's capacities, its cost
        assert "2^2  (          2..3):         3" in out
        assert "cold: 3, reuses: 3" in out
        assert "L1 (1,024 elements) 3, L2 (16,384 elements) 3" in out
        assert "reuse analysis: " in out and "accesses/s" in out

    def test_reuse_rejection_is_one_line_not_a_traceback(
        self, tmp_path, monkeypatch
    ):
        import repro.locality

        def reject(keys):
            raise ValueError("reuse_distances needs integer keys, got dtype float64")

        monkeypatch.setattr(repro.locality, "reuse_distances", reject)
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("0\n8\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "import", str(foreign), "--reuse"])
        assert str(exit_info.value).startswith("error: reuse_distances needs")

    def test_import_with_named_machine(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("0\n128\n256\n")
        assert (
            main(["trace", "import", str(foreign), "--machine", "octane"]) == 0
        )
        assert "octane" in capsys.readouterr().out

    def test_machine_and_app_are_exclusive(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("0\n8\n")
        with pytest.raises(SystemExit) as exit_info:
            main([
                "trace", "import", str(foreign), "--machine", "octane",
                "--app", "adi",
            ])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_unreadable_file_exits_cleanly(self, tmp_path, capsys):
        assert main(["trace", "import", str(tmp_path / "missing.ast")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_info_flags_missing_geometry(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("0\n8\n")
        assert main(["trace", "info", str(foreign)]) == 0
        assert "MISSING (S501)" in capsys.readouterr().out
        # element keys: info reads them, and says import will not simulate them
        foreign.write_text('# repro-address-stream v1 {"unit": "elements"}\n0\n1\n')
        assert main(["trace", "info", str(foreign)]) == 0
        assert "unit: elements - no byte addresses" in capsys.readouterr().out


class TestBenchMembw:
    def test_fft_quick_run_merges_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_membw.json"
        # pre-seed with an entry for another program: the merge must keep it
        out.write_text(
            json.dumps(
                {"benchmark": "x", "results": {"adi/new": {"sentinel": 1}}}
            )
        )
        assert (
            main(
                [
                    "bench-membw", "--apps", "fft", "--levels", "noopt",
                    "--json-out", str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "fft" in stdout
        data = json.loads(out.read_text())
        assert data["results"]["adi/new"] == {"sentinel": 1}
        record = data["results"]["fft/noopt"]
        assert record["program"] == "fft"
        assert record["accesses"] > 0
        assert record["data_transferred_bytes"] > 0
        assert record["dram_energy_nj"] > 0

    def test_check_requires_baseline(self, monkeypatch):
        # a flag error, so it is reported before anything is measured
        monkeypatch.setattr(
            "repro.cli.run", lambda request: pytest.fail("measured first")
        )
        with pytest.raises(SystemExit):
            main(
                ["bench-membw", "--apps", "fft", "--levels", "noopt", "--check"]
            )
