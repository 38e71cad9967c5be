"""CLI reports and exit codes that must not depend on the str hash seed.

Each row is one `gtkit` invocation with its expected exit code and the
sha256 prefix of the report it writes, or None for a row that must write
no report (malformed input exits 2 before it writes anything).  All rows
run in one interpreter per hash seed, under PYTHONHASHSEED 0 and 1, in a
directory that holds the input files of FILES; both runs must write
identical bytes, and the bytes must match the pinned digest.
"""

import copy
import functools
import hashlib
import json
import operator
import os
import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st

import gtkit
from gtkit import casestudy
from gtkit.amalgam import Amalgam
from gtkit.cli import main
from gtkit.gentorsion import GtCertificate

BS_COMMUTATOR = "[A: a][B: b][A: a^-1][B: b^-1]"


def _c14_half() -> dict:
    """C(14, 12) as `build nonlo --s 14 --m 12 --seed 3` writes it, with one
    exponent plus 0.5: an exponent that is not an integer is malformed."""
    data = casestudy.nonlo_json(casestudy.sample_exponents(14, 12, 3))
    data["exponents"]["a_exp"][0][1] += 0.5
    return data


def _bs2(images) -> dict:
    """The group file of BS(2) = Z *_{a^2 = c} Z^2 with the given edge image
    rows; [["a^2"], ["c"]] is the well-formed one."""
    return {"kind": "amalgam", "name": "G", "factors": [
        {"kind": "free", "name": "A", "alphabet": ["a"]},
        {"kind": "free-abelian", "name": "B", "alphabet": ["b", "c"]}],
        "edge": {"alphabet": ["e"], "images": images}}


# the input files, by the names the rows read them under
FILES = {
    "bs2.json": _bs2([["a^2"], ["c"]]),
    "free_c2.json": {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a^2", "b a b^-1"]},
    "onerel_c.json": {"kind": "free", "alphabet": ["a", "b"],
                      "subgroup": ["a", "b^-2 a b a^-1 b a"]},
    "free_a2.json": {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a^2"]},
    # a generator token that is not one generator
    "bad_pres.json": {"generators": ["x y", "z^3"], "relators": ["x", "z"]},
    # a certificate whose top-level value is a JSON string
    "str_cert.json": json.dumps({"base": BS_COMMUTATOR, "conjugators": ["[A: a^-1]", "1"]}),
    "ncl_x.json": {"target": "x", "terms": [[0, 1, "1"]], "relators": ["x"]},
    # with C = F(a, b) no a lies outside C
    "free_ab.json": {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a", "b"]},
    "c14_half.json": _c14_half(),
    # x is not in ncl(x^2), and a witness term with sign 0.5 is malformed
    "ncl_x2.json": {"alphabet": ["x"], "relators": ["x^2"]},
    "ncl_half.json": {"target": "x", "terms": [[0, 0.5, "1"]]},
    # a string where a list belongs, which must not be read one character at
    # a time
    "str_gens_pres.json": {"generators": "xy", "relators": ["x"]},
    "ncl_str_rels.json": {"target": "x", "terms": [[0, 1, "1"]], "relators": "x"},
    "free_str_alpha.json": {"kind": "free", "alphabet": "ab", "subgroup": ["a^2"]},
    "bs2_str_image.json": _bs2([["a^2"], "c"]),
    "str_conj_cert.json": {"base": BS_COMMUTATOR, "conjugators": "11"},
    # an edge image row for a third factor that the group does not have
    "bs2_extra_row.json": _bs2([["a^2"], ["c"], ["a^2"]]),
}

# (name, argv, exit code, sha256 prefix of the report or None); a row may
# read the report of an earlier row as <name>.json
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
        # the amalgam suites build normal forms as folds of the product, and
        # the tamed suites read the conjugates, inverses and verdict each
        # tuple keeps
        ("oracle_normalize_shuffle", "74149c2b7f63612f"),
        ("oracle_cancellation_number", "b4010166d1b7a7f4"),
        ("delta_factorization", "7c01040f45a27945"),
        ("prop_length_bound", "d234eee6b040dfdc"),
        ("lemma_cancellable_one_side", "bdeeb7f7cf54e308"),
        ("prop_two_sided", "2572fa263bc22797"),
        # the automaton suites read states, successors and canonical forms
        # through the closed-form numbering
        ("oracle_prefix_acceptable", "fef586f722531af4"),
        ("fold_confluence", "e3031e48f7429aee"),
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
] + [
    # malformed input exits 2 and writes no report: it is never a pass, a
    # verdict or a traceback
    (name, argv, 2, None) for name, argv in [
        ("abelianize_bad_pres", ["abelianize", "--pres", "bad_pres.json"]),
        ("verify_str_cert", ["verify", "--group", "bs2.json", "--cert", "str_cert.json"]),
        ("verify_no_files", ["verify"]),
        # --group and --cert mean nothing with --ncl
        ("verify_ncl_with_group", ["verify", "--ncl", "ncl_x.json", "--group", "no_such_file.json",
                            "--cert", "also_missing.json"]),
        ("negative_trials", ["suite", "magnus_inverse", "--trials", "-1"]),
        ("multimal_free_ab", ["search", "multimal", "--group", "free_ab.json"]),
        ("rtf_c14_half", ["search", "rtf", "--group", "c14_half.json"]),
        ("verify_ncl_half", ["verify", "--ncl", "ncl_half.json", "--free", "ncl_x2.json"]),
        ("abelianize_str_gens", ["abelianize", "--pres", "str_gens_pres.json"]),
        ("verify_ncl_str_rels", ["verify", "--ncl", "ncl_str_rels.json"]),
        ("rtf_free_str_alpha", ["search", "rtf", "--group", "free_str_alpha.json"]),
        ("gt_bs2_str_image", ["search", "gt", "--group", "bs2_str_image.json",
                              "--elem", BS_COMMUTATOR, "--max-n", "2"]),
        ("verify_str_conj", ["verify", "--group", "bs2.json", "--cert", "str_conj_cert.json"]),
        ("gt_bs2_extra_row", ["search", "gt", "--group", "bs2_extra_row.json",
                              "--elem", BS_COMMUTATOR, "--max-n", "2"]),
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


def _write_files(out_dir) -> None:
    out_dir.mkdir()
    for name, data in FILES.items():
        (out_dir / name).write_text(json.dumps(data))


def _run_rows(hashseed: str, out_dir) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtkit.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    _write_files(out_dir)
    # a row's report must not overwrite an input file
    assert not {f"{name}.json" for name, _, _, _ in ROWS} & FILES.keys()
    rows = json.dumps([(name, argv) for name, argv, _, _ in ROWS])
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(out_dir), rows],
                          cwd=out_dir, env=env, capture_output=True, check=True,
                          timeout=300)
    codes = json.loads(done.stdout)
    reports = {name: out_dir / f"{name}.json" for name, _, _, _ in ROWS}
    return {name: (code, reports[name].read_bytes() if reports[name].exists() else None)
            for (name, _, _, _), code in zip(ROWS, codes)}


def test_reports_are_pinned_and_do_not_depend_on_the_hash_seed(tmp_path):
    runs = [_run_rows(seed, tmp_path / f"h{seed}") for seed in ("0", "1")]
    assert runs[0] == runs[1]
    got = {name: (code, data and hashlib.sha256(data).hexdigest()[:16])
           for name, (code, data) in runs[0].items()}
    assert got == {name: (code, digest) for name, _, code, digest in ROWS}


def test_found_certificate_verifies_also_conjugated_by_a_long_element(tmp_path, monkeypatch):
    """The certificate `search gt` finds in BS(2) verifies (exit 0).

    Conjugating it by y = ([A: a][B: b])^1000 keeps its product: the base
    g^y (3,997 components) with conjugators y^-1 h_i verifies, and without
    its last conjugator it does not (exit 1).
    """
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path / "in")
    group = str(tmp_path / "in" / "bs2.json")
    assert main(["search", "gt", "--group", group, "--elem", BS_COMMUTATOR,
                 "--max-n", "2", "--out", "gt.json"]) == 1
    cert = json.loads((tmp_path / "gt.json").read_text())["certificate"]
    (tmp_path / "gt_cert.json").write_text(json.dumps(cert))
    verify = ["verify", "--group", group, "--out", "verified.json", "--cert"]
    assert main(verify + ["gt_cert.json"]) == 0
    G = Amalgam.from_json(FILES["bs2.json"])
    c = GtCertificate.from_json(G, cert)
    y = G.parse_element("[A: a][B: b]") ** 1000
    hs = [y.inverse() * h for h in c.conjugators]
    base = c.base.conj(y)
    assert base.length == 3997
    for name, conjugators, code in [("long_cert", hs, 0), ("long_cert_cut", hs[:-1], 1)]:
        (tmp_path / f"{name}.json").write_text(
            json.dumps(GtCertificate(base, conjugators).to_json()))
        assert main(verify + [f"{name}.json"]) == code


# a search per well-formed group file of FILES, with bounds that keep any
# mutant of it cheap
_FUZZ_SEARCHES = {
    "bs2.json": ["search", "gt", "--elem", BS_COMMUTATOR, "--max-n", "2"],
    "free_c2.json": ["search", "nss-intersection", "--elem", "a^2", "--max-n", "2"],
    "onerel_c.json": ["search", "multimal", "--seeds", "a", "--max-n", "2"],
    "free_a2.json": ["search", "rtf", "--max-n", "2"],
}
_OTHER_VALUES = st.one_of(st.sampled_from([None, True, 0, 2, 0.5, [], ["a"], [[]], {},
                                           {"a": 1}]),
                          st.text("ab^-2[]: ", max_size=4))


def _paths(node, path=()):
    """The path of every node under node, node's own included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@given(st.sampled_from(sorted(_FUZZ_SEARCHES)), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_group_files_exit_with_a_documented_code(name, data):
    """A group file with one key deleted, or one node replaced by a value of
    another JSON type, never ends in an internal error (exit 3); exit 2
    writes no report, and a string in place of a list always exits 2."""
    box = [copy.deepcopy(FILES[name])]   # a parent for the root node too
    *head, key = data.draw(st.sampled_from(list(_paths(box[0], (0,)))))
    parent = functools.reduce(operator.getitem, head, box)
    old = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
        new = None
    else:
        new = parent[key] = data.draw(_OTHER_VALUES.filter(lambda v: type(v) is not type(old)))
    with tempfile.TemporaryDirectory() as tmp:
        group, report = os.path.join(tmp, name), os.path.join(tmp, "report.json")
        with open(group, "w", encoding="utf-8") as fh:
            json.dump(box[0], fh)
        code = main(_FUZZ_SEARCHES[name] + ["--group", group, "--node-cap", "2000",
                                            "--out", report])
        wrote = os.path.exists(report)
    assert code in (0, 1, 2)
    assert not (code == 2 and wrote)
    if isinstance(old, list) and isinstance(new, str):
        assert code == 2
