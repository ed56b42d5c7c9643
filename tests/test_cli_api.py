"""CLI commands and the public package surface."""

import importlib
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

#: Every package in ``src/repro`` whose ``__init__`` declares ``__all__``.
PACKAGES = sorted(
    ".".join(init.parent.relative_to(Path(repro.__file__).parents[1]).parts)
    for init in Path(repro.__file__).parent.rglob("__init__.py")
    if "__all__" in init.read_text()
)


class TestPublicApi:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_symbols_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

    def test_package_discovery(self):
        assert {"repro", "repro.cluster", "repro.workloads.tpch"} <= set(
            PACKAGES
        )

    def test_version(self):
        assert repro.__version__

    def test_quickstart_surface(self):
        db = repro.tpch_database(0.002, repro.mysql_profile())
        runner = repro.WorkloadRunner(db, repro.default_system())
        curve = repro.PvcSweep(
            runner, [repro.selection_query(1)]
        ).run()
        assert len(curve.all_points) == 7


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["pvc", "--profile", "mysql",
                                  "--sf", "0.01"])
        assert args.profile == "mysql"
        assert args.sf == 0.01

    def test_table1_command(self, capsys):
        status = main(["table1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Table 1" in out
        assert "69.3" in out

    def test_disk_command(self, capsys):
        status = main(["disk"])
        assert status == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_qed_command_small(self, capsys):
        status = main(["qed", "--sf", "0.05", "--batches", "35", "50"])
        out = capsys.readouterr().out
        assert status == 0
        assert "batch 35" in out and "batch 50" in out

    def test_pvc_command_small(self, capsys):
        status = main(["pvc", "--profile", "mysql", "--sf", "0.01"])
        assert status == 0
        assert "mysql" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    @pytest.mark.parametrize("command", ["pvc", "qed", "warmcold",
                                         "cluster", "experiments"])
    @pytest.mark.parametrize("sf", ["0", "-1", "nan", "inf"])
    def test_scale_factor_must_be_positive_and_finite(
        self, command, sf, capsys,
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--sf", sf])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "argument --sf: scale factor must be positive" in (
            captured.err
        )
        assert "building" not in captured.out  # before any database

    def test_negative_arrivals_rejected(self, capsys):
        assert main(["cluster", "--arrivals", "-5"]) == 2
        captured = capsys.readouterr()
        assert "error: --arrivals must be non-negative" in captured.err
        assert "building" not in captured.out
