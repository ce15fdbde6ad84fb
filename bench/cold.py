"""Cold start: a fresh interpreter imports solvgeo and finishes one item.

    python3 bench/cold.py --workload gram_classify --seed 1

Prints ``ok``, ``known`` (a failure explained by scale alone) or ``fail``
with the item's record, and exits 0 unless the item failed unexplained.
run.py times this script for ``setup_s``.
"""

import argparse
import sys

import envinfo


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    try:
        envinfo.use_source()
    except envinfo.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import items

    workload = items.WORKLOADS[args.workload](args.seed)
    item = next(iter(workload.stream(items.MEASURE)))
    try:
        result = workload.run(item)
    except Exception as exc:  # reported through the oracle like any failure
        result = exc
    outcome = workload.check(item, result)
    status = "ok" if outcome.ok else "known" if outcome.known else "fail"
    print(status, outcome.record, outcome.reason)
    return 0 if status != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
