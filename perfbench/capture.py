"""Record the checked facts of each workload into reference.json.

    python3 perfbench/capture.py

Run it on a commit whose outputs are known good; every later benchmark
run compares its iterations with these facts.
"""

import json

import run


def main():
    reference = {}
    for workload, steps in sorted(run.STEPS.items()):
        record, error = run.spawn(workload, "run", steps)
        if error:
            raise SystemExit(f"{workload}: {error}")
        reference[workload] = record["facts"]
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
