"""CLI reports that must not depend on the str hash seed.

Each row is one `gtkit` invocation with its expected exit code and the
sha256 prefix of the report it writes.  All rows run in one interpreter per
hash seed, under PYTHONHASHSEED 0 and 1, in a directory that holds the
input files of FILES; both runs must write identical bytes, and the bytes
must match the pinned digest.
"""

import hashlib
import json
import os
import subprocess
import sys

import gtkit

BS_COMMUTATOR = "[A: a][B: b][A: a^-1][B: b^-1]"

# the input files, by the names the rows read them under
FILES = {
    "bs2.json": {"kind": "amalgam", "name": "G", "factors": [
        {"kind": "free", "name": "A", "alphabet": ["a"]},
        {"kind": "free-abelian", "name": "B", "alphabet": ["b", "c"]}],
        "edge": {"alphabet": ["e"], "images": [["a^2"], ["c"]]}},
    "free_c2.json": {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a^2", "b a b^-1"]},
    "onerel_c.json": {"kind": "free", "alphabet": ["a", "b"],
                      "subgroup": ["a", "b^-2 a b a^-1 b a"]},
    "free_a2.json": {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a^2"]},
}

# (name, argv, exit code, sha256 prefix of the report); a row may read the
# report of an earlier row as <name>.json
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
] + [
    # the searches run through one depth-first product search and sort
    # set-built balls into report order.  A certificate search in BS(2)
    # finds one (exit 1).
    ("gt_bs2", ["search", "gt", "--group", "bs2.json", "--elem", BS_COMMUTATOR,
                "--max-n", "2"], 1, "874fa613eaacd230"),
    # in C = <a^2, b a b^-1> both find violations (exit 1)
    ("nss_free_c2", ["search", "nss-intersection", "--group", "free_c2.json",
                     "--elem", "a^2", "--max-n", "2"], 1, "0c475fa62c302e79"),
    ("multimal_free_c2", ["search", "multimal", "--group", "free_c2.json",
                          "--seeds", "a^2;b a^2 b^-1", "--max-n", "2"], 1, "781ac47d1b492cbc"),
    # the last NSS level forms only the products that lie in C while the
    # element cap cannot fire; at --max-n 3 under the default 10^6 node cap
    # (155 members, 26,354 nodes) it passes (exit 0)
    ("nss3_onerel_c", ["search", "nss-intersection", "--group", "onerel_c.json",
                       "--elem", "a b^-2 a b a^-1 b a", "--max-n", "3"], 0, "38142f721e1509e5"),
    # rtf fills its last slot by a dict lookup; in <a^2> it finds
    # a 1 a a^-2 = 1 (exit 1)
    ("rtf_free_a2", ["search", "rtf", "--group", "free_a2.json"], 1, "82d7243ee1bf1928"),
    # the largest C, C(14, 12), folds through the CLI (exit 0), and its rtf
    # search is capped (exit 2)
    ("c14", ["build", "nonlo", "--s", "14", "--m", "12", "--seed", "3"], 0, "70452e0dad37f96f"),
    ("rtf_c14", ["search", "rtf", "--group", "c14.json", "--radius", "1", "--max-n", "2",
                 "--elt-letters", "2", "--node-cap", "500"], 2, "7945e71e8a2a5ac7"),
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtkit.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    out_dir.mkdir()
    for name, data in FILES.items():
        (out_dir / name).write_text(json.dumps(data))
    rows = json.dumps([(name, argv) for name, argv, _, _ in ROWS])
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(out_dir), rows],
                          cwd=out_dir, env=env, capture_output=True, check=True,
                          timeout=300)
    codes = json.loads(done.stdout)
    return {name: (code, (out_dir / f"{name}.json").read_bytes())
            for (name, _, _, _), code in zip(ROWS, codes)}


def test_reports_are_pinned_and_do_not_depend_on_the_hash_seed(tmp_path):
    runs = [_run_rows(seed, tmp_path / f"h{seed}") for seed in ("0", "1")]
    assert runs[0] == runs[1]
    got = {name: (code, hashlib.sha256(data).hexdigest()[:16])
           for name, (code, data) in runs[0].items()}
    assert got == {name: (code, digest) for name, _, code, digest in ROWS}
