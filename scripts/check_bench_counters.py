#!/usr/bin/env python3
"""Counter- and row-exact bench regression gate.

Bench executables emit results/BENCH_<name>.json with a "counters" section
(see src/obs/export.hpp) whose values tally pipeline work items and are
bit-identical across thread counts and runs, and a "rows" section holding
the bench's results table. This script diffs the counters against
checked-in goldens in results/golden/, and the rows too whenever the golden
has them; timings ("phases", "workers", "timing") are wall-clock and
explicitly excluded. Goldens are sparse: a counter absent from either side
reads as 0, so a golden lists only its nonzero counters and a new counter
that stays at 0 touches no golden. The comparison is still exact: a nonzero
counter missing from the golden, or any value that differs, is drift. Rows
compare exactly, as parsed JSON: the same rows, in the same order, with the
same values.

Usage:
  check_bench_counters.py [options] [NAME ...]
      Compare results/BENCH_<NAME>.json against results/golden/BENCH_<NAME>.json.
      Default NAMEs: every golden present in the golden directory.
  check_bench_counters.py --update [NAME ...]
      Regenerate goldens from the current results (minimal documents:
      schema_version + bench + the nonzero counters + the rows). The rows
      are left out for the benches in TIMED_ROWS, whose rows hold
      wall-clock columns.
  check_bench_counters.py --diff A.json B.json
      Compare the counters sections of two arbitrary report files (rows are
      not compared: a timed bench's rows differ between any two runs).
  check_bench_counters.py --require-nonzero COUNTER [NAME ...]
      Additionally fail if COUNTER is missing or zero in any compared result
      (e.g. cone_cache_hits: a zero means the fault-simulator cone cache never
      served a hit, i.e. the hot path silently fell off). Repeatable.
  check_bench_counters.py --ignore COUNTER ...
      Exclude COUNTER from the comparison (repeatable). Used by the CI
      kill-and-resume job: journal_records_written/journal_records_replayed
      legitimately differ between an uninterrupted run and a killed+resumed
      one (their *sum* is invariant, which the job asserts separately).
  check_bench_counters.py --min-ratio FIELD:MIN [NAME ...]
      Additionally fail if the CURRENT result's "timing" section has FIELD
      below MIN (repeatable). Timing fields are wall-clock and machine-
      dependent, so they are never golden-compared — this gate reads the
      fresh report only. Used by CI as --min-ratio threads_speedup_8:2.0 on
      the perf bench.

      Escape hatch (documented, deliberate): thread-scaling ratios are
      meaningless on small or noisy runners. The gate SKIPS a --min-ratio
      check, with a loud warning, when the environment sets
      SCANDIAG_SKIP_SCALING_GATE=1 (for runners that have the cores but not
      the isolation), or — for "threads_*" fields ONLY — when the report's
      timing section says hardware_concurrency < 8 (the bench records it).
      Ratios that do not depend on core count (dedup_speedup_growth,
      stream_rss_flat) are gated everywhere: a 1-core box can still prove
      dedup speeds sweeps up and streaming holds memory flat. Counter
      comparison always runs — only wall-clock ratio gates are waived.

Exit status: 0 = counters (and golden rows) identical, 1 = drift or missing
file, 2 = usage.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_KEYS = ("schema_version", "bench", "counters")
# Benches whose rows hold wall-clock columns: their goldens keep counters only.
TIMED_ROWS = frozenset({"perf", "soc_scale"})
# Differing rows printed per bench before the rest are summarized.
MAX_ROW_REPORTS = 5


class LoadError(Exception):
    """An unusable result/golden file. Raised (not SystemExit) so the per-name
    comparison loop can report it and keep going — one missing bench result
    must not hide every other bench's drift."""


def load(path: Path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise LoadError(f"{path} not found (run the bench first?)")
    except json.JSONDecodeError as e:
        raise LoadError(f"{path} is not valid JSON: {e}")


def counters_of(doc: dict, path: Path) -> dict:
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        raise LoadError(f"{path} has no counters object")
    return counters


def diff_counters(name: str, expected: dict, actual: dict,
                  ignore: frozenset = frozenset()) -> bool:
    """Prints per-counter drift; returns True when the sections are identical.
    A counter absent from one side reads as 0."""
    ok = True
    for key in sorted(set(expected) | set(actual)):
        if key in ignore:
            continue
        want, got = expected.get(key, 0), actual.get(key, 0)
        if want == got:
            continue
        ok = False
        if key not in expected:
            print(f"  {name}: counter {key} = {got} not in golden (reads as 0)")
        elif key not in actual:
            print(f"  {name}: counter {key} missing (golden has {want})")
        elif isinstance(want, int) and isinstance(got, int):
            print(f"  {name}: {key} drifted: golden {want} -> actual {got} "
                  f"({got - want:+d})")
        else:
            print(f"  {name}: {key} drifted: golden {want!r} -> actual {got!r}")
    return ok


def diff_rows(name: str, expected: list, actual) -> bool:
    """Prints row drift; returns True when the rows are identical."""
    if expected == actual:
        return True
    if not isinstance(actual, list):
        print(f"  {name}: result has no rows list (golden has {len(expected)} rows)")
        return False
    if len(expected) != len(actual):
        print(f"  {name}: {len(actual)} rows, golden has {len(expected)}")
    differing = [i for i, (want, got) in enumerate(zip(expected, actual)) if want != got]
    for i in differing[:MAX_ROW_REPORTS]:
        print(f"  {name}: row {i} drifted: golden {json.dumps(expected[i])} -> "
              f"actual {json.dumps(actual[i])}")
    if len(differing) > MAX_ROW_REPORTS:
        print(f"  {name}: ... and {len(differing) - MAX_ROW_REPORTS} more rows")
    return False


def compare(name: str, result_path: Path, golden_path: Path,
            ignore: frozenset = frozenset()) -> bool:
    result, golden = load(result_path), load(golden_path)
    ok = True
    if result.get("schema_version") != golden.get("schema_version"):
        print(f"  {name}: schema_version {golden.get('schema_version')} -> "
              f"{result.get('schema_version')}")
        ok = False
    ok &= diff_counters(name, counters_of(golden, golden_path),
                        counters_of(result, result_path), ignore)
    if "rows" in golden:
        ok &= diff_rows(name, golden["rows"], result.get("rows"))
    return ok


def write_atomic(path: Path, doc: dict) -> None:
    """Serialize then temp+rename so a crash never leaves a torn golden."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def parse_min_ratio(spec: str) -> tuple:
    field, sep, minimum = spec.partition(":")
    if not sep or not field:
        raise SystemExit(f"error: --min-ratio wants FIELD:MIN, got {spec!r}")
    try:
        return field, float(minimum)
    except ValueError:
        raise SystemExit(f"error: --min-ratio minimum {minimum!r} is not a number")


def check_min_ratios(name: str, doc: dict, specs: list) -> bool:
    """Gates machine-dependent timing ratios of the CURRENT report (never the
    golden). Returns True when every spec passes or is legitimately skipped."""
    if not specs:
        return True
    timing = doc.get("timing") or {}
    if os.environ.get("SCANDIAG_SKIP_SCALING_GATE") == "1":
        print(f"  {name}: WARNING: SCANDIAG_SKIP_SCALING_GATE=1 — skipping "
              f"{len(specs)} --min-ratio check(s)", file=sys.stderr)
        return True
    hw = timing.get("hardware_concurrency")
    if isinstance(hw, (int, float)) and hw < 8:
        # Only "threads_*" ratios need cores to materialize; core-count-
        # independent ratios (dedup speedup growth, RSS flatness) stay gated.
        scaling = [s for s in specs if s[0].startswith("threads_")]
        if scaling:
            print(f"  {name}: WARNING: runner has hardware_concurrency="
                  f"{int(hw)} (< 8) — thread-scaling ratios cannot "
                  f"materialize here; skipping "
                  f"{', '.join(s[0] for s in scaling)}", file=sys.stderr)
        specs = [s for s in specs if not s[0].startswith("threads_")]
    ok = True
    for field, minimum in specs:
        value = timing.get(field)
        if not isinstance(value, (int, float)):
            print(f"  {name}: timing field {field} is "
                  f"{'missing' if value is None else value!r} "
                  f"(need a number >= {minimum})")
            ok = False
        elif value < minimum:
            print(f"  {name}: timing ratio {field} = {value:.2f} below the "
                  f"required minimum {minimum:.2f}")
            ok = False
        else:
            print(f"  {name}: timing ratio {field} = {value:.2f} "
                  f">= {minimum:.2f}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="bench names (e.g. table1 perf noise)")
    parser.add_argument("--results", type=Path, default=Path("results"))
    parser.add_argument("--golden", type=Path, default=Path("results/golden"))
    parser.add_argument("--update", action="store_true",
                        help="write goldens from the current results")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare the counters of two report files")
    parser.add_argument("--require-nonzero", action="append", default=[],
                        metavar="COUNTER",
                        help="fail unless COUNTER is present and > 0 in every "
                             "compared result (repeatable)")
    parser.add_argument("--ignore", action="append", default=[], metavar="COUNTER",
                        help="exclude COUNTER from the comparison (repeatable)")
    parser.add_argument("--min-ratio", action="append", default=[],
                        metavar="FIELD:MIN",
                        help="fail unless the current result's timing FIELD is "
                             ">= MIN; skipped with a warning when "
                             "hardware_concurrency < 8 or "
                             "SCANDIAG_SKIP_SCALING_GATE=1 (repeatable)")
    args = parser.parse_args()
    ignore = frozenset(args.ignore)
    min_ratios = [parse_min_ratio(spec) for spec in args.min_ratio]

    if args.diff:
        a, b = args.diff
        try:
            identical = diff_counters(f"{a} vs {b}", counters_of(load(a), a),
                                      counters_of(load(b), b), ignore)
        except LoadError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if identical:
            print("counters identical")
            return 0
        return 1

    names = args.names
    if not names:
        names = sorted(p.stem[len("BENCH_"):]
                       for p in args.golden.glob("BENCH_*.json"))
        if not names:
            print(f"error: no goldens under {args.golden} and no names given",
                  file=sys.stderr)
            return 2

    if args.update:
        args.golden.mkdir(parents=True, exist_ok=True)
        update_failed = []
        for name in names:
            try:
                doc = load(args.results / f"BENCH_{name}.json")
                golden = {k: doc[k] for k in GOLDEN_KEYS if k in doc}
                counters = counters_of(golden, args.results / f"BENCH_{name}.json")
                golden["counters"] = {k: v for k, v in counters.items() if v != 0}
                if name not in TIMED_ROWS and "rows" in doc:
                    golden["rows"] = doc["rows"]
            except LoadError as e:
                print(f"  {name}: {e}")
                update_failed.append(name)
                continue
            out = args.golden / f"BENCH_{name}.json"
            write_atomic(out, golden)
            print(f"wrote {out}")
        if update_failed:
            print(f"FAIL: could not regenerate: {', '.join(update_failed)}",
                  file=sys.stderr)
            return 1
        return 0

    failed = []
    for name in names:
        result_path = args.results / f"BENCH_{name}.json"
        try:
            ok = compare(name, result_path, args.golden / f"BENCH_{name}.json",
                         ignore)
            result_doc = load(result_path)
            ok &= check_min_ratios(name, result_doc, min_ratios)
            counters = counters_of(result_doc, result_path)
        except LoadError as e:
            print(f"  {name}: {e}")
            failed.append(name)
            continue
        for counter in args.require_nonzero:
            value = counters.get(counter)
            if not isinstance(value, int) or value <= 0:
                print(f"  {name}: required counter {counter} is "
                      f"{'missing' if value is None else value} (must be > 0)")
                ok = False
        if ok:
            print(f"ok: {name} matches golden")
        else:
            failed.append(name)
    if failed:
        print(f"FAIL: counter or row drift in: {', '.join(failed)}\n"
              "If the change is intentional (new instrumentation site, workload "
              "change), regenerate with scripts/check_bench_counters.py --update "
              "and commit the goldens.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
