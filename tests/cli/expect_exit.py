#!/usr/bin/env python3
"""Runs one command and checks its exit code, stdout, stderr, and an output file.

    expect_exit.py --exit 2 --stderr "unknown option" -- scandiag dr s953 --jsno
    expect_exit.py --exit 0 --stdout "DR = 8.1080" -- scandiag dr s953 ...
    expect_exit.py --exit 8 --creates m.json -- scandiag dr s953 --defects 2 ...
    expect_exit.py --exit 2 --empty-stdout -- scandiag soc-dr soc1 --groups 3

--empty-stdout requires the command to print nothing on stdout (a usage
error must not leave a partial report behind).

--creates PATH removes PATH before the run and requires it to exist after,
to parse as JSON, and to be a metrics document (schema_version 1 and a
non-empty counters object).
"""
import argparse
import json
import os
import subprocess
import sys


def metrics_file_problems(path):
    if not os.path.exists(path):
        return [f"{path} was not written"]
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as e:
        return [f"{path} is not JSON: {e}"]
    if not isinstance(doc, dict):
        return [f"{path} is not a JSON object"]
    problems = []
    if doc.get("schema_version") != 1:
        problems.append(f"{path} lacks schema_version 1")
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        problems.append(f"{path} lacks a non-empty counters object")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exit", type=int, required=True, help="expected exit code")
    parser.add_argument("--stdout", default="", help="text stdout must contain")
    parser.add_argument("--stderr", default="", help="text stderr must contain")
    parser.add_argument("--empty-stdout", action="store_true",
                        help="require the command to print nothing on stdout")
    parser.add_argument("--creates", default="", help="metrics file the command must write")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command
    if opts.creates and os.path.exists(opts.creates):
        os.remove(opts.creates)

    proc = subprocess.run(command, capture_output=True, text=True)
    problems = []
    if proc.returncode != opts.exit:
        problems.append(f"exit {proc.returncode}, expected {opts.exit}")
    if opts.stdout not in proc.stdout:
        problems.append(f"stdout lacks {opts.stdout!r}")
    if opts.empty_stdout and proc.stdout:
        problems.append("stdout is not empty")
    if opts.stderr not in proc.stderr:
        problems.append(f"stderr lacks {opts.stderr!r}")
    if opts.creates:
        problems += metrics_file_problems(opts.creates)
    for problem in problems:
        print(f"FAIL {' '.join(command)}: {problem}")
    if problems:
        print(f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
