"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser, main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "selector" in out
    assert "feature" in out


def test_components_command_all(capsys):
    assert main(["components"]) == 0
    out = capsys.readouterr().out
    assert "selector\tgreedy" in out
    assert "feature\tsort_order" in out


def test_components_command_filtered(capsys):
    assert main(["components", "selector"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out
    assert "feature" not in out


def test_simulate_command_small(capsys):
    assert (
        main(
            [
                "simulate",
                "--rows", "4000",
                "--bins", "8",
                "--tune-every-bins", "5",
                "--features", "2",
                "--seed", "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "simulating 8 bins" in out
    assert "self-management log" in out


def test_fleet_command_small(capsys):
    assert (
        main(
            [
                "fleet",
                "--tenants", "2",
                "--rows", "2000",
                "--bins", "8",
                "--seed", "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fleet: 2 tenants" in out
    assert "t0" in out and "t1" in out
    assert "fleet rollup:" in out
    assert "what-if cache (all tenants):" in out


def _exit_status(argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    return exit_.value.code


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fleet", "--tenants", "0"], "at least one tenant"),
        (
            ["fleet", "--tenants", "2", "--rows", "2000", "--bins", "2",
             "--checkpoint-every", "-1", "--checkpoint-dir", "{tmp}/ck"],
            "checkpoint_every must be >= 0",
        ),
        (["guard", "--rows", "2000", "--swap-a", "nosuch"], "'nosuch'"),
        (  # a failed checkpoint write: the directory is under a file
            ["fleet", "--tenants", "2", "--rows", "2000", "--bins", "2",
             "--checkpoint-every", "2", "--checkpoint-dir", "{tmp}/file/ck"],
            "checkpoint write failed",
        ),
    ],
)
def test_bad_option_values_exit_2_with_one_line(
    capsys, tmp_path, argv, expected
):
    """A value argparse cannot judge alone is still an option error."""
    (tmp_path / "file").write_text("in the way")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert _exit_status(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(argv[0] + ": ")
    assert expected in err and "Traceback" not in err


def test_fleet_resume_failures_exit_2_with_one_line(capsys, tmp_path):
    """An unusable --checkpoint-dir is an option error, not a traceback:
    nothing to resume from, and a checkpoint of another format version."""
    from tests.fleet.test_checkpoint import _rewrite_format_version

    resume = ["fleet", "--resume", "--checkpoint-dir", str(tmp_path)]
    assert _exit_status(resume) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no checkpoints under" in err

    fleet = ["fleet", "--tenants", "2", "--rows", "2000", "--bins", "2"]
    checkpointed = ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", "2"]
    assert main(fleet + checkpointed) == 0
    (written,) = tmp_path.iterdir()
    _rewrite_format_version(written, 8)
    capsys.readouterr()
    assert _exit_status(resume) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "format version 8; this build reads version 9" in captured.err


def test_importing_the_package_does_not_import_scipy():
    """scipy.optimize is most of the import time and ~40 MiB of RSS; only
    the ordering LP and the optimal selector need it, when they solve."""
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, repro.fleet, sys; sys.exit('scipy' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0


def test_order_command_small(capsys):
    assert (
        main(["order", "--rows", "4000", "--features", "2", "--seed", "3"])
        == 0
    )
    out = capsys.readouterr().out
    assert "LP order" in out
    assert "W_0" in out


def test_trace_command_small(capsys, tmp_path):
    jsonl = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "trace",
                "--rows", "4000",
                "--bins", "5",
                "--features", "2",
                "--seed", "3",
                "--sample-every", "16",
                "--jsonl", str(jsonl),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "span tree of the last tuning pass" in out
    assert "tuning_pass" in out
    assert "enumerate" in out and "assess" in out and "select" in out
    assert "metric registry:" in out
    assert "whatif_cache_misses" in out
    assert jsonl.exists()


def test_faults_command_small(capsys):
    assert (
        main(
            [
                "faults",
                "--rows", "3000",
                "--bins", "6",
                "--tune-every-bins", "3",
                "--features", "2",
                "--seed", "3",
                "--failure-rate", "0.5",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fault-free run" in out
    assert "faulty run: failure rate 50%" in out
    assert "fault record:" in out
    assert "faults_injected" in out
    assert "final cost" in out


def test_guard_command_small(capsys):
    assert (
        main(
            [
                "guard",
                "--rows", "3000",
                "--bins", "8",
                "--tune-every-bins", "4",
                "--swap-at", "4",
                "--features", "2",
                "--seed", "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "under the commit guard" in out
    assert "dominance swap at bin 4" in out
    assert "guard record:" in out
    assert "guard_commits" in out


_SMALL = ["--features", "2", "--seed", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rows", "4000", "--bins", "8", "--tune-every-bins", "5"],
        ["faults", "--rows", "3000", "--bins", "6", "--tune-every-bins", "3",
         "--failure-rate", "0.5"],
        ["guard", "--rows", "3000", "--bins", "8", "--tune-every-bins", "4",
         "--swap-at", "4"],
        ["guard", "--rows", "3000", "--bins", "8", "--tune-every-bins", "4",
         "--swap-at", "0"],
    ],
    ids=["simulate", "faults", "guard-swap", "guard-no-swap"],
)
def test_closed_loop_commands_print_only_what_their_run_recorded(
    capsys, argv
):
    """Two runs in one process print the same report: nothing a command
    renders survives from an earlier run."""
    outputs = []
    for _ in range(2):
        status = main(argv + _SMALL)
        outputs.append((status, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    if argv[-2:] == ["--swap-at", "0"]:
        assert "dominance swap" not in outputs[0][1]


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["order", "--suite", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
