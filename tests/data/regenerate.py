"""Regenerate the pinned sweep tables in this directory.

Run from the repository root after the oracle-equivalence tests pass:

    python tests/data/regenerate.py

`python tests/data/regenerate.py sector_channels.json` writes only the
N-port sector-channel pins, leaving the timestamps of the others as
they are.

The pinned values are compared bitwise-insensitively (1e-9) by the
acceptance suite; regenerate only when the underlying numerics are
intentionally changed, and rerun the oracle tests first.
"""
import json
import pathlib
import sys

from cvpbt.cli import main
from cvpbt.nport import NPortChannel
from cvpbt.two_port import ChannelParams

HERE = pathlib.Path(__file__).parent
GRID = "0.15:0.75:5"
SECTOR_BUILDS = [(4, 4), (5, 3), (6, 2)]  # (ports, cap) of the pinned generic sector channels
SECTOR_LAMBDA_X, SECTOR_LAMBDA_Y, SECTOR_LEVELS = 0.3, (0.3, 0.6), 6


def emit(name, *argv):
    out = HERE / name
    code = main(list(argv) + ["--format", "json", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"generation failed for {name} (exit {code})")
    print(f"wrote {out}")


def sector_channels():
    """C and T on SECTOR_LEVELS levels, `_gamma_max` and `tail_bound` of
    generic `NPortChannel` builds at N >= 4, which no CLI table covers."""
    builds = []
    for ports, cap in SECTOR_BUILDS:
        for lam_y in SECTOR_LAMBDA_Y:
            channel = NPortChannel(ChannelParams(SECTOR_LAMBDA_X, lam_y, ports=ports), cap=cap)
            c, t = channel.arrays(SECTOR_LEVELS)
            builds.append({
                "ports": ports, "cap": cap, "lambda_x": SECTOR_LAMBDA_X, "lambda_y": lam_y,
                "C": c.tolist(), "T": t.tolist(),
                "gamma_max": channel._gamma_max, "tail_bound": channel.tail_bound(SECTOR_LEVELS),
            })
    out = HERE / "sector_channels.json"
    out.write_text(json.dumps({"levels": SECTOR_LEVELS, "builds": builds}, indent=1) + "\n")
    print(f"wrote {out}")


def run():
    for ports in (2, 3):
        emit(
            f"fidelity_bell2_ports{ports}.json",
            "fidelity-sweep", "--input", "bell2", "--ports", str(ports),
            "--lambda-x-range", GRID, "--lambda-y-range", GRID,
        )
        emit(
            f"fidelity_bell3_ports{ports}.json",
            "fidelity-sweep", "--input", "bell3", "--ports", str(ports),
            "--lambda-x-range", GRID, "--lambda-y-range", GRID,
        )
        emit(
            f"fidelity_tmsv_ports{ports}.json",
            "fidelity-sweep", "--input", "tmsv", "--ports", str(ports),
            "--lambda-in", str(1 / 3), "--cutoff", "12",
            "--lambda-x-range", GRID, "--lambda-y-range", GRID,
        )
    emit(
        "sim_bound_sweep.json",
        "bounds", "--kind", "sim",
        "--lambda-x", str(2**-0.25), "--lambda-y", str(2**-0.25),
        "--delta-range", "0:0.28:8",
    )
    sector_channels()


if __name__ == "__main__":
    if sys.argv[1:] == ["sector_channels.json"]:
        sector_channels()
    else:
        run()
