"""Convert a whitespace-delimited plant-data .dat file to the CSV layout the
CLI reads (samples as rows, header x1..xN).

The public distribution stores the training block d00.dat as variables x
samples while every test block is samples x variables; --orientation auto
assumes 52 process variables and transposes whichever axis matches.  The
plant benchmark is this conversion followed by ``scafd bench`` (see the
README's Experiments section).

Example:
    python3 scripts/convert_tep_dat.py /data/tep/d00.dat /tmp/tep_train.csv
"""

import argparse
from pathlib import Path

import numpy as np

from scafd.data import write_samples_csv


N_VARIABLES = 52  # process variables of the public plant-data layout


def convert(in_path: Path, out_path: Path, orientation: str) -> tuple[int, int]:
    raw = np.loadtxt(in_path)
    if raw.ndim == 1:
        raw = raw[None, :]
    if orientation == "variables-rows":
        raw = raw.T
    elif orientation == "auto":
        if raw.shape[0] == N_VARIABLES and raw.shape[1] != N_VARIABLES:
            raw = raw.T
        elif raw.shape[1] != N_VARIABLES:
            raise ValueError(
                f"neither axis of {raw.shape} matches {N_VARIABLES} variables; "
                "pass --orientation explicitly"
            )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_samples_csv(out_path, raw.T)
    return raw.shape


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("in_path", type=Path)
    parser.add_argument("out_path", type=Path)
    parser.add_argument("--orientation", default="auto",
                        choices=["auto", "samples-rows", "variables-rows"])
    args = parser.parse_args()
    rows, cols = convert(args.in_path, args.out_path, args.orientation)
    print(f"wrote {args.out_path} ({rows} samples x {cols} variables)")


if __name__ == "__main__":
    main()
