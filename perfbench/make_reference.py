"""Record reference.json: per workload and data seed, the generated input's
sha256, the first report's Hits@10 and median rank, and every output's sha256.

    python3 perfbench/make_reference.py [workload ...]

Rerun only when a change to geodl.synthetic or to the workloads is meant to
change the inputs, or a numerics change is meant to change the outputs; say
so in the change's description.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, run_child


def main(argv: list) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        entries = reference["workloads"].setdefault(workload, {})
        for data_seed in range(reference["data_seeds"]):
            result = run_child(workload, data_seed, 0.001, 0, ("--new-reference",))
            if result is None or result["problems"]:
                print(f"{workload} data seed {data_seed}: run failed "
                      f"{result and result['problems']}", file=sys.stderr)
                return 1
            entries[str(data_seed)] = {
                key: result[key]
                for key in ("input_sha256", "hits10", "median_rank", "hashes")
            }
            print(workload, data_seed, result["hits10"], result["median_rank"])
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
