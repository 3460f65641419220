"""Drive the benchmark runner from Python: run a config over seeds, compare
algorithm variants, and read back the CSV traces.
"""

import tempfile
from pathlib import Path

from neurocpd.bench import RunConfig, compare, compare_table, run

workdir = Path(tempfile.mkdtemp(prefix="neurocpd_demo_"))
print(f"writing outputs under {workdir}\n")

base = {
    "problem": {"kind": "difficult9", "seed": 0},
    "rank": 10,
    "budget": {"iterations": 400},
    "seeds": [0, 1, 2],
    "output_dir": str(workdir),
}

records = run(RunConfig.from_dict({**base, "algorithm": "flow"}))
for record in records:
    print(f"flow seed {record.seed}: final rel error "
          f"{record.final_rel_error:.3e} ({record.termination})")

print("\nComparing three algorithms on the same seeds:")
cfgs = [
    RunConfig.from_dict({**base, "algorithm": algo, "label": algo})
    for algo in ("flow", "hals", "mur")
]
rows = compare(cfgs)
print(compare_table(rows))

csvs = sorted(workdir.glob("flow_seed*.csv"))
print("\nCSV traces (iter,objective,rel_error,wall_ms,diversity):")
for path in csvs:
    rows = path.read_text().splitlines()[1:]
    print(f"  {path.name}: {len(rows)} rows, last {rows[-1]}")
