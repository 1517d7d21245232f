"""One step of a benchmark run in a fresh process, so that its peak RSS is
the program's own and the step starts cold:

    python3 perfbench/child.py prepare --workload NAME --seed N --out DIR
    python3 perfbench/child.py pass --workload NAME --seed N --out DIR --data DIR --index I

Run from the checkout root. Prints one JSON line: the set-up's dataset hash
and leaf count, or the pass's figures, output hashes and peak RSS.
"""

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import passes  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("prepare", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(passes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--data", type=Path)
    parser.add_argument("--dataset-sha256")
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()
    workload = passes.WORKLOADS[args.workload]
    if args.step == "prepare":
        print(json.dumps(passes.prepare(workload, args.seed, args.out)))
    else:
        result = passes.run_pass(workload, args.seed, args.data, args.out, index=args.index)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.hashes = passes.output_hashes(workload, result, args.dataset_sha256)
        row = asdict(result)
        del row["result_files"], row["fol_pairs"]
        print(json.dumps(row))
