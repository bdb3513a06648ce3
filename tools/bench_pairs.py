"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

Usage::

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N \\
        --seconds S --seed-base B --label L [--floor-root FLOOR_ROOT]

Each root is a checkout of one commit (a git clone, so that the benchmark can
record the commit).  Pair i runs ``python3 perfbench/run.py --workload W
--seed B+i --seconds S --trace 0`` from the root of each checkout, with that
checkout's own ``perfbench``; the parent runs first in even pairs and second
in odd ones.  The runs go one at a time.  ``--floor-root`` names a second
checkout of the parent's commit: each pair then also runs it with the same
seed (last in even pairs, first in odd ones), as the noise floor that two
checkouts of one commit show.

The script writes ``BENCH_<L>.json`` in the working directory: for every end
to end metric the runs, median and quartiles of each side, the pairs in which
the change was lower, the ratio of the medians and two verdicts; the mean
R-SNR of each run; failed and attempted operations; and the machine and
commits read from the provenance each run leaves under ``.perfbench/``.  When
the file exists, the workload is added to it (or replaced), provided the
commits and the machine match.

The verdicts take each metric's ``better`` direction and ``bound`` from the
change checkout's ``BENCHMARK.json``.  A gain is shown when the change is
better in at least 9 of every 10 pairs (a tie counts for neither side) and
its median beats the parent's by more than the parent's interquartile range
and, with a floor, by more than the floor's gap: the distance between the
medians of the parent and of its second checkout, in either direction.
The change stays within the bound when its median is worse than the parent's
by at most ``bound`` times the parent's median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
FLOOR = "floor"  # a second checkout of the parent's commit
MACHINE_KEYS = ("cores", "affinity", "cpu_model", "caches", "blas", "python", "numpy", "scipy")
PROCEDURE = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
             "run from the root of a checkout of each commit by tools/bench_pairs.py; pairs "
             "alternate which commit runs first; one process at a time on the machine below")
SEED_DERIVATION = "each run's 8 data instances take perfbench/run.py derive_seeds(S, i), i = 0..7"
QUALITY_NOTE = ("nrmse, sam_rad and objective_final are means over a run's 8 instances, "
                "as perfbench reports them")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``: the detail file it leaves behind."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):  # 1 is a failed check, which the file records
        raise RuntimeError(f"{root}: {' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    path = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(runs) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def verdicts(parent: dict, change: dict, better: str, bound: float, floor=None) -> dict:
    """Whether the pairs show a gain, and whether the change stays within ``bound``.

    ``parent``, ``change`` and the optional ``floor`` are :func:`quartiles`
    of each side's runs, in pair order; ``better`` is "lower" or "higher".
    With a floor the gain must also exceed the floor's gap in magnitude.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent["runs"], change["runs"]))
    pairs = len(parent["runs"])
    gap = sign * (parent["median"] - change["median"])  # > 0 when the change is better
    out = {"better": better, "bound": bound, "change_better_in": f"{wins}/{pairs} pairs",
           "gain_shown": 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"],
           "within_bound": -gap <= bound * abs(parent["median"])}
    if floor is not None:
        out["floor_gap"] = sign * (parent["median"] - floor["median"])
        out["gain_shown"] = out["gain_shown"] and gap > abs(out["floor_gap"])
    return out


def end_to_end_specs(root: str) -> dict:
    """``better`` and ``bound`` of each end-to-end metric in ``root``'s BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def summarize(details: dict, seeds: list, parent_first: list, specs: dict) -> dict:
    """The workload entry of a BENCH file from each side's run details.

    ``specs`` maps a metric's name to its ``better`` and ``bound``, as
    :func:`end_to_end_specs` reads them; a metric it lacks gets no verdicts.
    ``details`` may also hold the floor's runs, which enter every verdict.
    """
    first = details["change"][0]
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "order": (f"parent ran first for seeds {[s for s, p in zip(seeds, parent_first) if p]} "
                  f"and second for {[s for s, p in zip(seeds, parent_first) if not p]}"),
        "params": first["provenance"]["params"],
        "metrics": {},
    }
    for name, m in first["metrics"].items():
        runs = {side: [d["metrics"][name]["value"] for d in details[side]] for side in details}
        entry = {side: quartiles(runs[side]) for side in details}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        entry.update(unit=m["unit"], change_lower_in=f"{lower}/{len(seeds)} pairs",
                     median_ratio_change_over_parent=(entry["change"]["median"]
                                                      / entry["parent"]["median"]),
                     verdicts=(verdicts(entry["parent"], entry["change"], *specs[name],
                                        floor=entry.get(FLOOR))
                               if name in specs else None))
        out["metrics"][name] = entry
    out["rsnr_db_mean_per_run"] = {
        side: [statistics.fmean(d["series"]["rsnr_db"]) for d in details[side]]
        for side in details}
    for key in ("failed", "attempted"):
        out[key] = {side: sum(d[key] for d in details[side]) for side in details}
    return out


def provenance(details: dict) -> tuple:
    """The machine and the per-side commits; every run must agree on them.

    A floor must report the parent's commit.
    """
    commits, machines = {}, set()
    for side in details:
        seen = {d["provenance"]["commit"] for d in details[side]}
        if len(seen) != 1:
            raise RuntimeError(f"the {side} runs report several commits: {sorted(seen)}")
        commits[side] = seen.pop()
        machines.update(json.dumps({k: d["provenance"][k] for k in MACHINE_KEYS},
                                   sort_keys=True) for d in details[side])
    if len(machines) != 1:
        raise RuntimeError("the runs report different machines")
    if commits.get(FLOOR, commits["parent"]) != commits["parent"]:
        raise RuntimeError(f"the floor runs commit {commits[FLOOR]}, not the parent's "
                           f"{commits['parent']}")
    return json.loads(machines.pop()), commits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--floor-root", help="a second checkout of the parent's commit")
    args = ap.parse_args(argv)
    # the quartiles of each side need two runs
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2, got {args.pairs}")
    if not args.seconds > 0:
        ap.error(f"--seconds must be positive, got {args.seconds}")
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    if args.floor_root is not None:
        roots[FLOOR] = os.path.abspath(args.floor_root)
    specs = end_to_end_specs(roots["change"])  # read before the runs, so a missing file costs none

    seeds = [args.seed_base + i for i in range(args.pairs)]
    parent_first = [i % 2 == 0 for i in range(args.pairs)]
    details = {side: [] for side in roots}
    for seed, pf in zip(seeds, parent_first):
        for side in list(roots) if pf else list(roots)[::-1]:
            details[side].append(run_once(roots[side], args.workload, seed, args.seconds))
            m = details[side][-1]["metrics"]
            print(f"seed {seed} {side:6s} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    machine, commits = provenance(details)
    path = f"BENCH_{args.label}.json"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
        if (any(bench["commits"][side] != commits[side] for side in SIDES)
                or bench["machine"] != machine):
            raise RuntimeError(f"{path} holds runs of other commits or another machine")
        bench["commits"].update(commits)
    else:
        bench = {"label": args.label, "procedure": PROCEDURE.format(seconds=args.seconds),
                 "seed_derivation": SEED_DERIVATION, "quality_note": QUALITY_NOTE,
                 "machine": machine, "commits": commits,
                 "page_cache": details["change"][0]["provenance"]["page_cache"],
                 "workloads": {}}
    entry = summarize(details, seeds, parent_first, specs)
    bench["workloads"][args.workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")

    for name, m in entry["metrics"].items():
        p, c, v = m["parent"], m["change"], m["verdicts"]
        floor = "" if v is None or "floor_gap" not in v else f", floor gap {v['floor_gap']:.3g}"
        print(f"{args.workload} {name}: {p['median']:.6g} -> {c['median']:.6g} {m['unit']} "
              f"(parent IQR {p['q3'] - p['q1']:.3g}{floor}), change lower in "
              f"{m['change_lower_in']}"
              + ("" if v is None else
                 f"; gain shown: {'yes' if v['gain_shown'] else 'no'}, within bound "
                 f"{v['bound']:g}: {'yes' if v['within_bound'] else 'no'}"))
    print("failed/attempted: " + ", ".join(
        f"{side} {entry['failed'][side]}/{entry['attempted'][side]}" for side in details)
          + f"; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
