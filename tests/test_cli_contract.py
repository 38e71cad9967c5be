"""CLI reports that must not depend on the str hash seed.

Each row is one `gtkit` invocation with its expected exit code and the
sha256 prefix of the report it writes.  All rows run in one interpreter per
hash seed, under PYTHONHASHSEED 0 and 1; both runs must write identical
bytes, and the bytes must match the pinned digest.
"""

import hashlib
import json
import os
import subprocess
import sys

import gtkit

# (name, argv, exit code, sha256 prefix of the report)
ROWS = [
    # the Magnus suites build series by degree, leading terms row by row,
    # and fold each basis once
    (name, ["suite", name, "--trials", "200", "--seed", "104"], 0, digest)
    for name, digest in [
        ("magnus_homomorphism", "3786a702d669f684"),
        ("magnus_inverse", "45d034a80caa6df1"),
        ("magnus_leading_conjugation", "9ff95f90f17c2664"),
        ("magnus_degree1", "48b3854a59060d26"),
        ("magnus_ideal_transfer", "8d7a5d3750cb813e"),
        ("magnus_c_degree1", "b5b0ec2f9a27ef46"),
        ("magnus_c_leading_vars", "942c4cd298aa1c96"),
    ]
]

# runs every row through gtkit.cli.main, each writing <dir>/<name>.json,
# and prints the exit codes as one JSON list
_RUNNER = """
import json, os, sys
from gtkit.cli import main
out, rows = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps([main(argv + ["--out", os.path.join(out, name + ".json")])
                  for name, argv in rows]))
"""


def _run_rows(hashseed: str, out_dir) -> dict:
    src = os.path.dirname(os.path.dirname(gtkit.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    out_dir.mkdir()
    rows = json.dumps([(name, argv) for name, argv, _, _ in ROWS])
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(out_dir), rows],
                          env=env, capture_output=True, check=True, timeout=300)
    codes = json.loads(done.stdout)
    return {name: (code, (out_dir / f"{name}.json").read_bytes())
            for (name, _, _, _), code in zip(ROWS, codes)}


def test_reports_are_pinned_and_do_not_depend_on_the_hash_seed(tmp_path):
    runs = [_run_rows(seed, tmp_path / f"h{seed}") for seed in ("0", "1")]
    assert runs[0] == runs[1]
    got = {name: (code, hashlib.sha256(data).hexdigest()[:16])
           for name, (code, data) in runs[0].items()}
    assert got == {name: (code, digest) for name, _, code, digest in ROWS}
