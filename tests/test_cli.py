import json
import re
import shlex
from pathlib import Path

import pytest

from gtkit import gentorsion as gt
from gtkit.amalgam import element_from_free_word, free_as_free_product
from gtkit.cli import main
from gtkit.errors import InternalInvariantError
from gtkit.word import parse_word as W


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def bs2_files(tmp_path):
    G, cert = gt.bs_commutator_witness(2)
    return (
        write(tmp_path, "bs2.json", G.to_json()),
        write(tmp_path, "bs2_cert.json", cert.to_json()),
    )


def test_verify_good_certificate(bs2_files, capsys):
    group, cert = bs2_files
    assert main(["verify", "--group", group, "--cert", cert]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_verify_bad_certificate(tmp_path, capsys):
    F = free_as_free_product(["a", "b"])
    cert = gt.GtCertificate(element_from_free_word(F, W("a")), [F.identity()])
    group = write(tmp_path, "free2.json", F.to_json())
    certf = write(tmp_path, "bad.json", cert.to_json())
    assert main(["verify", "--group", group, "--cert", certf]) == 1


def test_verify_ncl(tmp_path):
    from gtkit import casestudy as cs

    w = gt.NclWitness(cs.gamma_alpha(), [(0, -1, W("a[0] a[2]"))])
    data = w.to_json()
    data["relators"] = [str(cs.gamma_relator())]
    ncl = write(tmp_path, "alpha.json", data)
    assert main(["verify", "--ncl", ncl]) == 0


@pytest.mark.parametrize("index, sign", [
    (0, 0.5), (0, "1"), (0, True), (0, -1.0), (0, 2), (0, 0), (0.5, 1), (True, 1), ("0", 1),
])
def test_verify_ncl_rejects_terms_without_an_int_index_and_a_unit_sign(
        tmp_path, capsys, index, sign):
    # x is not in ncl(x^2), yet (x^2) ** 0.5 read as a float power is x^1.0 == x
    for pres in ({"alphabet": ["x"], "relators": ["x^2"]},
                 {"alphabet": ["x", "y"], "relators": ["x^2 y"]}):
        free = write(tmp_path, "pres.json", pres)
        ncl = write(tmp_path, "w.json", {"target": "x", "terms": [[index, sign, "1"]]})
        assert main(["verify", "--ncl", ncl, "--free", free]) == 2
        assert "sign 1 or -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--group", "bs2"],
    ["verify", "--cert", "cert"],
    ["verify", "--group", "bs2", "--cert", "cert", "--free", "bs2"],
], ids=["no-arguments", "group-without-cert", "cert-without-group", "free-without-ncl"])
def test_verify_without_its_files_exits_2(bs2_files, capsys, argv):
    # a missing --group or --cert is malformed input, not an internal error,
    # and --free means nothing without --ncl
    files = {"bs2": bs2_files[0], "cert": bs2_files[1]}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: verify" in captured.err


def test_verify_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--group", str(bad), "--cert", str(bad)]) == 2


def test_search_gt_found(bs2_files, tmp_path, capsys):
    group, _ = bs2_files
    out = str(tmp_path / "cert_out.json")
    code = main([
        "search", "gt", "--group", group,
        "--elem", "[A: a][B: b][A: a^-1][B: b^-1]",
        "--max-n", "2", "--radius", "1", "--out", out,
    ])
    assert code == 1
    data = json.loads(open(out).read())
    assert data["found"] and len(data["certificate"]["conjugators"]) == 2


def test_search_gt_none_found(tmp_path):
    F = free_as_free_product(["a", "b"])
    group = write(tmp_path, "free2.json", F.to_json())
    code = main([
        "search", "gt", "--group", group, "--elem", "[A: a]",
        "--max-n", "3", "--radius", "1", "--elt-letters", "1",
    ])
    assert code == 0


@pytest.mark.parametrize("elem", ["[A: a][B b]", "[A: a] junk [B: b]", "[Z: a]"])
def test_search_gt_rejects_malformed_element(tmp_path, elem):
    F = free_as_free_product(["a", "b"])
    group = write(tmp_path, "free2.json", F.to_json())
    assert main(["search", "gt", "--group", group, "--elem", elem]) == 2


@pytest.mark.parametrize("data", [
    {"kind": "amalgam", "factors": 5},
    {"kind": "amalgam", "factors": [{"kind": "free", "name": "A", "alphabet": 3}],
     "edge": {"alphabet": [], "images": [[]]}},
    {"kind": "free", "alphabet": ["a"], "subgroup": 7},
    {"kind": "nonlo", "exponents": []},
    [1, 2],
])
def test_search_malformed_group_file_exit_2(tmp_path, capsys, data):
    group = write(tmp_path, "bad.json", data)
    assert main(["search", "gt", "--group", group, "--elem", "[A: a]"]) == 2
    assert "malformed group file" in capsys.readouterr().err


def test_verify_malformed_certificate_exit_2(bs2_files, tmp_path, capsys):
    group, _ = bs2_files
    cert = write(tmp_path, "c.json", {"base": 5, "conjugators": ["1"]})
    assert main(["verify", "--group", group, "--cert", cert]) == 2
    assert "malformed certificate file" in capsys.readouterr().err


def test_abelianize_malformed_presentation_exit_2(tmp_path, capsys):
    pres = write(tmp_path, "p.json", {"generators": 5, "relators": 3})
    assert main(["abelianize", "--pres", pres]) == 2
    assert "malformed presentation file" in capsys.readouterr().err


def test_verify_malformed_ncl_witness_exit_2(tmp_path, capsys):
    ncl = write(tmp_path, "n.json", {"target": "a", "terms": [[0, 1]],
                                     "relators": ["a"]})
    assert main(["verify", "--ncl", ncl]) == 2
    assert "malformed witness file" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-n", "--max-k"])
def test_search_zero_max_n_exit_2(tmp_path, capsys, flag):
    # an explicit 0 is rejected, not replaced by the default 3
    group = write(tmp_path, "f.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a"],
    })
    assert main(["search", "rtf", "--group", group, flag, "0"]) == 2
    assert "max_n" in capsys.readouterr().err


def test_search_conflicting_max_n_max_k_exit_2(tmp_path, capsys):
    # the two flags name one bound: different values are rejected, not
    # resolved silently in favour of either
    group = write(tmp_path, "f.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a"],
    })
    base = ["search", "rtf", "--group", group, "--radius", "1", "--elt-letters", "1"]
    assert main(base + ["--max-n", "2", "--max-k", "3"]) == 2
    err = capsys.readouterr().err
    assert "--max-n 2" in err and "--max-k 3" in err
    reports = []
    for flags in (["--max-n", "2", "--max-k", "2"], ["--max-n", "2"], ["--max-k", "2"]):
        out = str(tmp_path / "r.json")
        assert main(base + flags + ["--out", out]) in (0, 1)
        with open(out) as fh:
            reports.append(json.load(fh))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["params"]["bounds"]["max_n"] == 2


def test_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "suite", "magnus_inverse", "--trials", "1"])
    assert exc.value.code == 2


def test_search_seed_flag_removed(tmp_path):
    # no search reads a seed; the flag is gone, and is not read as --seeds
    group = write(tmp_path, "f.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a"],
    })
    with pytest.raises(SystemExit) as exc:
        main(["search", "rtf", "--group", group, "--seed", "3"])
    assert exc.value.code == 2


def test_search_rtf_violation(tmp_path, capsys):
    group = write(tmp_path, "z.json", {
        "kind": "free", "alphabet": ["a"], "subgroup": ["a^2"],
    })
    code = main(["search", "rtf", "--group", group,
                 "--radius", "2", "--max-k", "2", "--elt-letters", "1"])
    assert code == 1


def test_search_rtf_clean(tmp_path):
    group = write(tmp_path, "f.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a"],
    })
    code = main(["search", "rtf", "--group", group,
                 "--radius", "2", "--max-k", "2", "--elt-letters", "2"])
    assert code == 0


def test_search_multimal(tmp_path):
    group = write(tmp_path, "z.json", {
        "kind": "free", "alphabet": ["a"], "subgroup": ["a^2"],
    })
    code = main(["search", "multimal", "--group", group, "--seeds", "a^2",
                 "--radius", "1", "--max-n", "2", "--elt-letters", "1"])
    assert code == 1


def test_search_nss_intersection_readme_example(tmp_path, capsys):
    # the README's example, verbatim: the one-relator edge subgroup C of
    # F(a, b) and alpha its product of generators
    group = write(tmp_path, "onerel_c.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a", "b^-2 a b a^-1 b a"],
    })
    assert main(["search", "nss-intersection", "--group", group,
                 "--elem", "a b^-2 a b a^-1 b a"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["trials"] > 0 and rep["ok"]
    assert (rep["violations"], rep["inconclusive"], rep["capped"]) == ([], 0, False)


README = Path(__file__).resolve().parent.parent / "README.md"


def run_readme_cli(tmp_path, monkeypatch, prefix):
    """Run the first line of README's CLI block that starts with prefix,
    in tmp_path, after writing the files that the block's echo lines write."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    for line in lines:
        m = re.fullmatch(r"echo '(.*)' > (\S+)", line)
        if m:
            (tmp_path / m.group(2)).write_text(m.group(1) + "\n")
    line = next(line for line in lines if line.startswith(prefix))
    argv = shlex.split(line, comments=True)
    assert argv[0] == "gtkit"
    return main(argv[1:])


def test_readme_search_gt_example_runs_as_written(tmp_path, monkeypatch):
    assert run_readme_cli(tmp_path, monkeypatch, "gtkit search gt") == 1
    data = json.loads((tmp_path / "cert.json").read_text())
    assert data["found"] and not data["capped"]
    assert data["nodes"] == 8431
    assert data["certificate"]["conjugators"] == ["1", "[A: a]", "[A: a^-1]"]
    assert (tmp_path / "bs3.json").read_text() == \
        json.dumps(gt.bs_amalgam(3).to_json()) + "\n"


def test_readme_verify_example_runs_as_written(tmp_path, monkeypatch, capsys):
    assert run_readme_cli(tmp_path, monkeypatch, "gtkit verify --group") == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    G, cert = gt.bs_commutator_witness(2)
    assert json.loads((tmp_path / "bs2.json").read_text()) == G.to_json()
    assert json.loads((tmp_path / "bs2_cert.json").read_text()) == cert.to_json()


def test_readme_verify_ncl_example_runs_as_written(tmp_path, monkeypatch, capsys):
    from gtkit import casestudy as cs

    assert run_readme_cli(tmp_path, monkeypatch, "gtkit verify --ncl") == 0
    assert json.loads(capsys.readouterr().out) == {"verified": True, "type": "ncl"}
    data = json.loads((tmp_path / "gamma_alpha.json").read_text())
    assert gt.NclWitness.from_json(data).target == cs.gamma_alpha()
    assert data["relators"] == [str(cs.gamma_relator())]


def test_readme_suite_small_cancellation_example_runs_as_written(
        tmp_path, monkeypatch, capsys):
    assert run_readme_cli(tmp_path, monkeypatch, "gtkit suite lemma_small") == 0
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rep["params"] == {"s": 10, "m": 8, "pairs_checked": 240}


def test_suite_forwards_s_and_m(capsys):
    assert main(["suite", "lemma_small_cancellation", "--s", "11", "--m", "8",
                 "--trials", "20"]) == 0
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert (rep["params"]["s"], rep["params"]["m"]) == (11, 8)


def test_search_nss_intersection_rejects_elt_letters(tmp_path, capsys):
    # the search reads no letter bound, so an explicit flag is an input error
    group = write(tmp_path, "onerel_c.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a", "b^-2 a b a^-1 b a"],
    })
    args = ["search", "nss-intersection", "--group", group,
            "--elem", "a b^-2 a b a^-1 b a"]
    for value in ("0", "2", "7"):
        assert main(args + ["--elt-letters", value]) == 2
        captured = capsys.readouterr()
        assert "--elt-letters" in captured.err and captured.out == ""
    # without the flag the report echoes the default bound of 2
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["params"]["bounds"]["max_elt_letters"] == 2


def test_search_gt_report_without_elt_letters_is_the_default_2(tmp_path, capsys):
    group = write(tmp_path, "bs2.json", gt.bs_amalgam(2).to_json())
    args = ["search", "gt", "--group", group, "--elem", "[A: a][B: b][A: a^-1][B: b^-1]",
            "--max-n", "2", "--radius", "1"]
    assert main(args) == 1
    default = capsys.readouterr().out
    assert main(args + ["--elt-letters", "2"]) == 1
    assert capsys.readouterr().out == default
    assert json.loads(default)["bounds"]["max_elt_letters"] == 2


def test_search_nss_intersection_non_basis_subgroup_exit_2(tmp_path, capsys):
    group = write(tmp_path, "c.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a", "a^2"],
    })
    assert main(["search", "nss-intersection", "--group", group, "--elem", "a"]) == 2
    err = capsys.readouterr().err
    assert "free basis" in err and "Traceback" not in err


@pytest.mark.parametrize("what, data", [
    ("gt", None),
    ("nss-intersection", {"kind": "free", "alphabet": ["a", "b"], "subgroup": ["a"]}),
], ids=["gt", "nss-intersection"])
def test_search_missing_elem_exit_2(tmp_path, capsys, what, data):
    if data is None:
        data = free_as_free_product(["a", "b"]).to_json()
    group = write(tmp_path, "g.json", data)
    assert main(["search", what, "--group", group]) == 2
    err = capsys.readouterr().err
    assert "--elem" in err and "Traceback" not in err


@pytest.mark.parametrize("seeds", ["", ";", "a^2;", " "])
def test_search_multimal_rejects_empty_seeds(tmp_path, capsys, seeds):
    # an empty --seeds is not read as "no seeds given", which would search
    # from the subgroup's first generator instead
    group = write(tmp_path, "z.json", {
        "kind": "free", "alphabet": ["a"], "subgroup": ["a^2"],
    })
    assert main(["search", "multimal", "--group", group, "--seeds", seeds,
                 "--radius", "1", "--max-n", "2", "--elt-letters", "1"]) == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and "Traceback" not in err


def test_search_multimal_empty_subgroup_exit_2(tmp_path, capsys):
    group = write(tmp_path, "e.json", {"kind": "free", "alphabet": ["a"], "subgroup": []})
    assert main(["search", "multimal", "--group", group]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("what", ["rtf", "multimal"])
def test_search_with_the_whole_group_as_subgroup_exit_2(tmp_path, capsys, what):
    # C = F(a, b) leaves no a (or g) outside C in the letter ball, so the
    # check has nothing to search; it is rejected, not passed vacuously
    group = write(tmp_path, "f.json", {
        "kind": "free", "alphabet": ["a", "b"], "subgroup": ["a", "b"],
    })
    out = tmp_path / "report.json"
    assert main(["search", what, "--group", group, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not proper" in err and "Traceback" not in err
    assert not out.exists()


def test_build_w_and_abelianize(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    assert main(["build", "w", "--out", out]) == 0
    assert main(["abelianize", "--pres", out]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is True


def test_build_nonlo_and_rtf_view(tmp_path):
    out = str(tmp_path / "nonlo.json")
    assert main(["build", "nonlo", "--s", "10", "--m", "8", "--seed", "0",
                 "--out", out]) == 0
    code = main(["search", "rtf", "--group", out,
                 "--radius", "1", "--max-k", "1", "--elt-letters", "1",
                 "--node-cap", "30000"])
    assert code in (0, 2)  # none found; 2 when the cap bites first


def test_build_nonlo_writes_the_group_file_without_folding(tmp_path, monkeypatch):
    from gtkit import casestudy as cs
    from gtkit.stallings import SubgroupAutomaton

    folds = []
    fold = SubgroupAutomaton._build
    monkeypatch.setattr(SubgroupAutomaton, "_build",
                        lambda self: folds.append(1) or fold(self))
    out = str(tmp_path / "nonlo.json")
    assert main(["build", "nonlo", "--s", "10", "--m", "8", "--seed", "3",
                 "--out", out]) == 0
    e = cs.sample_exponents(10, 8, 3)
    assert json.loads(open(out).read()) == {"kind": "nonlo", "exponents": e.to_json()}
    assert folds == []
    # search rtf reads C's generators only; the amalgam is never built
    assert main(["search", "rtf", "--group", out, "--radius", "0", "--max-k", "1",
                 "--elt-letters", "1", "--node-cap", "1"]) in (0, 2)
    assert len(folds) == 1  # check_rtf's own fold of C


def test_nonlo_group_file_validates_before_any_search(tmp_path, capsys):
    from gtkit import casestudy as cs

    data = cs.nonlo_json(cs.sample_exponents(10, 8, 0))
    data["exponents"]["a_exp"][0][0] = 0
    group = write(tmp_path, "bad.json", data)
    assert main(["search", "rtf", "--group", group]) == 2
    assert "exponents must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("key, row, col, value", [
    ("a_exp", 0, 1, 0.5), ("b_exp", 3, 2, 0.0), ("a_exp", 7, 9, True),
    ("s", None, None, 10.0), ("m", None, None, "8"),
])
def test_nonlo_group_file_rejects_non_int_exponents(tmp_path, capsys, key, row, col, value):
    # int() would truncate 175.5 to 175 and search the truncated file
    from gtkit import casestudy as cs

    e = cs.nonlo_json(cs.sample_exponents(10, 8, 0))["exponents"]
    if row is None:
        e[key] = value
    elif type(value) is float:
        e[key][row][col] += value
    else:
        e[key][row][col] = value
    group = write(tmp_path, "bad.json", {"kind": "nonlo", "exponents": e})
    assert main(["search", "rtf", "--group", group]) == 2
    assert "must be ints" in capsys.readouterr().err


def test_build_nonlo_small_s_rejected(capsys):
    assert main(["build", "nonlo", "--s", "5"]) == 2


def test_suite_unknown_exit_2():
    assert main(["suite", "nosuch"]) == 2


def test_suite_single_ok(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    assert main(["suite", "magnus_inverse", "--trials", "40", "--seed", "1",
                 "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["ok"] and data["reports"][0]["violations"] == []


def test_suite_reports_are_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["suite", "length_subadditivity", "--trials", "30", "--seed", "5",
          "--out", a])
    main(["suite", "length_subadditivity", "--trials", "30", "--seed", "5",
          "--out", b])
    assert open(a).read() == open(b).read()


@pytest.mark.parametrize("argv, files, kind", [
    (["search", "rtf", "--group", "{0}"], [{"kind": "free"}], "group"),
    (["search", "rtf", "--group", "{0}"], [{"kind": "nonlo"}], "group"),
    (["search", "rtf", "--group", "{0}"], [{"kind": "nonlo", "exponents": {"m": 8}}],
     "group"),
    (["search", "gt", "--group", "{0}", "--elem", "[A: a]"], [{"kind": "amalgam"}],
     "group"),
    (["verify", "--group", "bs2", "--cert", "{0}"], [{"base": "[A: a]"}], "certificate"),
    (["abelianize", "--pres", "{0}"], [{"generators": ["a"]}], "presentation"),
    (["verify", "--ncl", "{0}", "--free", "{1}"],
     [{"target": "a", "terms": []}, {"relators": ["a"]}], "presentation"),
    (["verify", "--ncl", "{0}"], [{"target": "a", "terms": []}], "witness"),
    (["verify", "--ncl", "{0}"], [{"terms": [], "relators": ["a"]}], "witness"),
], ids=["free-alphabet", "nonlo-exponents", "nonlo-s", "amalgam-factors",
        "cert-conjugators", "pres-relators", "free-pres-alphabet", "ncl-relators",
        "ncl-target"])
def test_missing_key_exits_2_as_malformed(bs2_files, tmp_path, capsys, argv, files, kind):
    paths = [write(tmp_path, f"f{i}.json", data) for i, data in enumerate(files)]
    argv = [bs2_files[0] if a == "bs2" else a.format(*paths) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"malformed {kind} file: missing key" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc", [KeyError("internal"),
                                 InternalInvariantError("broken invariant")],
                         ids=["KeyError", "InternalInvariantError"])
def test_internal_error_exits_3_with_traceback(tmp_path, capsys, monkeypatch, exc):
    def broken(*_args):
        raise exc

    monkeypatch.setattr(gt, "check_rtf", broken)
    group = write(tmp_path, "f.json", {"kind": "free", "alphabet": ["a", "b"],
                                       "subgroup": ["a"]})
    assert main(["search", "rtf", "--group", group]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and type(exc).__name__ in err


def test_undecodable_group_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["search", "rtf", "--group", str(bad)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("token", ["a^2", "x y", "a^-1"])
def test_free_group_file_rejects_a_generator_token_that_is_not_one_generator(
        tmp_path, token):
    group = write(tmp_path, "free.json", {
        "kind": "free", "alphabet": [token, "b"], "subgroup": ["b"]})
    assert main(["search", "rtf", "--group", group, "--radius", "1",
                 "--max-n", "2"]) == 2


def test_free_presentation_rejects_a_generator_token_that_is_not_one_generator(
        tmp_path):
    from gtkit import casestudy as cs

    w = gt.NclWitness(cs.gamma_alpha(), [(0, -1, W("a[0] a[2]"))])
    ncl = write(tmp_path, "alpha.json", w.to_json())
    free = write(tmp_path, "free.json", {
        "alphabet": ["a[0] a[3]", "a[1]", "a[2]"],
        "relators": [str(cs.gamma_relator())]})
    assert main(["verify", "--ncl", ncl, "--free", free]) == 2


def test_abelianize_rejects_a_generator_token_that_is_not_one_generator(
        tmp_path, capsys):
    # read as generators x and z, this presentation would be called trivial
    pres = write(tmp_path, "pres.json",
                 {"generators": ["x y", "z^3"], "relators": ["x", "z"]})
    assert main(["abelianize", "--pres", pres]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--s", "--m"])
def test_suite_rejects_s_and_m_where_the_suite_reads_neither(flag, capsys):
    assert main(["suite", "magnus_inverse", flag, "9", "--trials", "2"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["suite", "nonlo_witnesses", "--m", "8", "--trials", "2"]) == 0


# -- input files must hold JSON objects ------------------------------------------

def write_string_encoded(tmp_path, name, data):
    """A file whose top-level value is a JSON string holding data's JSON text."""
    return write(tmp_path, name, json.dumps(data))


def test_verify_rejects_a_string_encoded_certificate(bs2_files, tmp_path, capsys):
    group, cert = bs2_files
    certf = write_string_encoded(tmp_path, "cert.json", json.load(open(cert)))
    assert main(["verify", "--group", group, "--cert", certf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed certificate file" in captured.err


def test_verify_rejects_a_string_encoded_ncl_witness(tmp_path, capsys):
    from gtkit import casestudy as cs

    w = gt.NclWitness(cs.gamma_alpha(), [(0, -1, W("a[0] a[2]"))])
    ncl = write_string_encoded(tmp_path, "alpha.json", w.to_json())
    free = write(tmp_path, "free.json", {
        "alphabet": ["a[0]", "a[1]", "a[2]"], "relators": [str(cs.gamma_relator())]})
    assert main(["verify", "--ncl", ncl, "--free", free]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed witness file" in captured.err


def test_abelianize_rejects_a_string_encoded_presentation(tmp_path, capsys):
    pres = write_string_encoded(tmp_path, "pres.json",
                                {"generators": ["x", "y"], "relators": ["x"]})
    assert main(["abelianize", "--pres", pres]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed presentation file" in captured.err


def test_unknown_factor_kind_exits_2(tmp_path, capsys):
    data = {
        "kind": "amalgam",
        "factors": [{"kind": "fre", "name": "A", "alphabet": ["a", "b"]},
                    {"kind": "free", "name": "B", "alphabet": ["c"]}],
        "edge": {"alphabet": [], "images": [[], []]},
    }
    group = write(tmp_path, "typo.json", data)
    # read as free-abelian, the commutator would be trivial
    assert main(["search", "gt", "--group", group,
                 "--elem", "[A: a b a^-1 b^-1]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown factor kind 'fre'" in captured.err


@pytest.mark.parametrize("trials", ["-5", "-1"])
def test_suite_rejects_negative_trials(trials, capsys):
    assert main(["suite", "magnus_inverse", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trials must be non-negative" in captured.err
