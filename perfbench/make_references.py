"""Write perfbench/references.json: for seeds 0-9 of every workload, the
outputs of its first steps (train_desk and gradcheck_tiny: loss per step;
infer_2x: MAE per frame of the first pass).  run.py compares a run against
them within its REFERENCE_RTOL.  Regenerate only when the program's outputs
are meant to change, and say so in the change that does it.

    python3 perfbench/make_references.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

SEEDS = range(10)


def main():
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        key, steps = cls.reference
        refs[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                workload = cls(seed, work)
                workload.setup()
                run = workloads.measure(workload, max_steps=steps)
            if run.failed:
                raise SystemExit(f"{name} seed {seed} failed: {run.reasons}")
            refs[name][str(seed)] = [o[key] for o in run.outputs]
            print(name, seed, refs[name][str(seed)][:2])
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
