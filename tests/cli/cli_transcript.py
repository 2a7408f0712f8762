#!/usr/bin/env python3
"""Pins the `scandiag` CLI's stdout and exit code to checked-in transcripts.

Runs a fixed matrix of commands at one thread count and compares each
command's stdout and exit code with tests/cli/transcripts/<case>.txt. The
first line of a transcript is `exit: <code>`; the rest is stdout verbatim.
Stderr is not compared (it carries timings and paths).

    cli_transcript.py --cli build/tools/scandiag --threads 4
    cli_transcript.py --cli build/tools/scandiag --threads 1 --update

Run from the repository root (the offline case reads data/). Output is
bit-identical for every --threads value, so one transcript serves them all.
"""
import argparse
import subprocess
import sys
from pathlib import Path

TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"

CASES = {
    "dr_s953": "dr s953 --json --faults 50",
    "dr_s953_adaptive": "dr s953 --scheme adaptive --json --faults 50",
    "dr_s953_noise": "dr s953 --noise 0.02 --retry-budget 64 --faults 50 --json",
    "dr_s953_adaptive_noise":
        "dr s953 --scheme adaptive --noise 0.02 --retry-budget 64 --faults 50 --json",
    "dr_s953_intermittent": "dr s953 --defects 2,intermittent:0.5 --faults 10 --json",
    "diagnose_s953": "diagnose s953 --fault g100 --json",
    "diagnose_s953_noise": "diagnose s953 --fault g100 --noise 0.05 --json",
    "soc_dr_soc1_defects": "soc-dr soc1 --defects 2 --faults 50 --json",
    "offline_sample": "offline --log data/sample_session.log --cells 29 --groups 4 --partitions 6",
    # The three benchmark commands.
    "dr_s38584": "dr s38584 --json",
    "soc_dr_soc1_adaptive": "soc-dr soc1 --scheme adaptive",
    "dr_s13207_defects": "dr s13207 --defects 2 --json",
}


def transcript(cli, args, threads):
    proc = subprocess.run([cli, *args.split(), "--threads", str(threads)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return f"exit: {proc.returncode}\n{proc.stdout}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="path to the scandiag binary")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--update", action="store_true", help="rewrite the transcripts")
    opts = parser.parse_args()

    failed = []
    for name, args in CASES.items():
        got = transcript(opts.cli, args, opts.threads)
        path = TRANSCRIPTS / f"{name}.txt"
        if opts.update:
            path.write_text(got)
            continue
        want = path.read_text() if path.exists() else "<missing transcript>\n"
        if got != want:
            failed.append(name)
            print(f"FAIL {name}: scandiag {args}\n--- expected\n{want}--- got\n{got}")
    if opts.update:
        print(f"recorded {len(CASES)} transcripts")
        return 0
    if failed:
        print(f"{len(failed)} of {len(CASES)} transcripts differ: {', '.join(failed)}")
        return 1
    print(f"{len(CASES)} transcripts match at --threads {opts.threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
