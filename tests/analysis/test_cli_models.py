"""CLI tests: ``repro-cli models`` and lint family validation."""

import json

import pytest

from repro.cli import main


class TestLintFamilyValidation:
    def test_unknown_family_exits_2(self, capsys):
        code = main(["lint", "--families", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown analyzer families" in captured.err
        assert "bogus" in captured.err
        assert captured.out == ""

    def test_mixed_known_and_unknown_exits_2(self, capsys):
        code = main(["lint", "--families", "lowering,nope"])
        assert code == 2
        assert "'nope'" in capsys.readouterr().err

    def test_new_families_accepted(self, capsys):
        code = main(
            [
                "lint",
                "--strategy",
                "DD",
                "--n",
                "1",
                "--families",
                "lowering,tensor",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["families"] == ["lowering", "tensor"]

    def test_fail_on_exit_codes_with_family_filter(self, capsys):
        # lowering/tensor emit infos on the built-ins (LW007/TZ002), so
        # --fail-on info flips the exit code while error does not
        base = [
            "lint", "--strategy", "DD", "--n", "1",
            "--families", "lowering,tensor",
        ]
        assert main(base) == 0
        assert main([*base, "--fail-on", "info"]) == 1
        assert main([*base, "--fail-on", "never"]) == 0
        capsys.readouterr()


class TestModelsList:
    def test_lists_builtins(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("ahs-dd", "ahs-dc", "ahs-cd", "ahs-cc"):
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["models", "list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in data]
        assert "ahs-dd" in names
        assert all("description" in entry for entry in data)


class TestModelsLint:
    def test_single_model_admitted(self, capsys, tmp_path):
        code = main(
            [
                "models", "lint", "--name", "ahs-dd",
                "--cache-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted" in out and "0 errors" in out
        assert "fresh" in out

    def test_second_run_hits_the_cache(self, capsys, tmp_path):
        args = [
            "models", "lint", "--name", "ahs-dd",
            "--cache-dir", str(tmp_path), "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["ir_digest"] == first["ir_digest"]

    def test_unknown_name_exits_2(self, capsys):
        code = main(["models", "lint", "--name", "no-such", "--no-cache"])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_fail_on_info_flips_exit(self, capsys):
        base = ["models", "lint", "--name", "ahs-dd", "--no-cache"]
        assert main(base) == 0
        assert main([*base, "--fail-on", "info"]) == 1
        capsys.readouterr()

    def test_all_builtins_lint_clean(self, capsys, tmp_path):
        code = main(
            ["models", "lint", "--cache-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) >= 4
        assert all(entry["admitted"] for entry in data)
        digests = {entry["ir_digest"] for entry in data}
        assert len(digests) == len(data)  # content addresses, not aliases


class TestModelsDescribe:
    def test_describe_prints_digest_and_lowering_table(self, capsys):
        code = main(["models", "describe", "--name", "ahs-dd", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ir digest" in out
        assert "stepped lowering" in out
        assert "vectorized" in out

    def test_describe_requires_name(self, capsys):
        assert main(["models", "describe"]) == 2
        assert "requires --name" in capsys.readouterr().err

    def test_describe_unknown_name(self, capsys):
        assert main(["models", "describe", "--name", "ghost"]) == 2
        assert "unknown model" in capsys.readouterr().err
