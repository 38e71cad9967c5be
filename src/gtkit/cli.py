"""Command-line front end.

Exit codes follow one contract everywhere: 0 = verified / none-found,
1 = refuted / violation or certificate found, 2 = malformed input (parse
error, missing key, wrong shape), unknown target, or a capped search that
found nothing (inconclusive), 3 = internal error (a failed invariant or an
unexpected exception; the traceback goes to stderr).
All randomness flows from the suite and build --seed: suite reports embed
the seed, search reports embed their bounds and have no seed field, and
identical invocations produce byte-identical reports.  Flags are never read from abbreviations.
Every input file (group, certificate, presentation, witness) must hold a
JSON object; a file whose top-level value is a string, list or number
exits 2.  An amalgam factor's kind is exactly `free` or `free-abelian`.
Generator tokens in group and presentation files (alphabets, generator
lists) must each be a single generator, `a` or `a[2]`; `a^2` or `x y`
exits 2, and so does a list that names one generator twice.  A group's and
each factor's `name` must be a string.  `search --max-n` and `--max-k` name
one bound; giving both with different values exits 2.  `verify` takes
`--group` and `--cert`, or `--ncl` with an optional `--free`; anything less,
`--free` without `--ncl`, or `--group` or `--cert` with `--ncl`, exits 2.
`suite --trials` must be non-negative.
Besides its bounds, `search gt` reads `--elem` and `--elt-letters`, `rtf`
reads `--elt-letters`, `multimal` reads `--seeds` and `--elt-letters`, and
`nss-intersection` reads `--elem`; giving a target a flag it does not read
exits 2.
Of the suites, only lemma_small_cancellation and nonlo_witnesses read --s
and --m; giving either to another single suite exits 2, and `suite all`
passes them to those two.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager

from . import casestudy, gentorsion
from .amalgam import Amalgam
from .errors import GtkitError, InternalInvariantError, PreconditionError
from .gentorsion import GtCertificate, NclWitness, SearchBounds
from .word import Presentation, abelianize_snf, json_alphabet, json_list, parse_word

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextmanager
def _file_shape(kind: str):
    """Turn a missing key or wrong-shaped value in a file into PreconditionError.

    A number where a list is expected, say, would otherwise escape as a
    TypeError and exit 3, the code for an internal error.
    """
    try:
        yield
    except GtkitError:
        raise
    except KeyError as exc:
        raise PreconditionError(f"malformed {kind} file: missing key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed {kind} file: {exc}") from exc


class GroupFile:
    """Dispatch over the supported group file kinds.

    A nonlo file is validated here, but its amalgam (two folds of C-sized
    automata) is built only when `require_amalgam` asks for it; the free
    group searches read just the alphabet and C's generators.
    """

    def __init__(self, data):
        with _file_shape("group"):
            self._load(data)

    def _load(self, data):
        self.kind = data.get("kind", "amalgam")
        self.amalgam = None
        self.alphabet = None
        self.subgroup = None
        if self.kind == "amalgam":
            self.amalgam = Amalgam.from_json(data)
        elif self.kind == "free":
            self.alphabet = json_alphabet(data["alphabet"], "alphabet")
            self.subgroup = [parse_word(w, self.alphabet)
                             for w in json_list(data.get("subgroup", []), "subgroup")]
        elif self.kind == "nonlo":
            self._exponents = casestudy.ExponentMatrix.from_json(data["exponents"])
            casestudy.validate_exponent_matrix(self._exponents)
            self.alphabet = [casestudy.A_GEN, casestudy.B_GEN]
            self.subgroup = casestudy.generator_words(self._exponents)
        else:
            raise GtkitError(f"unknown group kind: {self.kind!r}")

    def require_amalgam(self, message: str) -> Amalgam:
        if self.kind == "nonlo" and self.amalgam is None:
            self.amalgam = casestudy.build_nonlo(self._exponents).amalgam
        if self.amalgam is None:
            raise GtkitError(message)
        return self.amalgam


def _bounds(args) -> SearchBounds:
    # --max-n and --max-k name the same bound, so two different values
    # conflict; an explicit 0 reaches SearchBounds and is rejected there
    if None not in (args.max_n, args.max_k) and args.max_n != args.max_k:
        raise PreconditionError(
            f"--max-n {args.max_n} and --max-k {args.max_k} name the same bound")
    max_n = next((v for v in (args.max_n, args.max_k) if v is not None), 3)
    return SearchBounds(
        radius=args.radius,
        max_n=max_n,
        max_elt_letters=2 if args.elt_letters is None else args.elt_letters,
        node_cap=args.node_cap,
    )


def cmd_verify(args) -> int:
    if args.ncl:
        if args.group is not None or args.cert is not None:
            raise GtkitError("verify --ncl takes no --group or --cert")
        data = _load_json(args.ncl)
        if args.free:
            free_data = _load_json(args.free)
            with _file_shape("presentation"):
                alphabet = json_alphabet(free_data["alphabet"], "alphabet")
                relators = [parse_word(w, alphabet)
                            for w in json_list(free_data["relators"], "relators")]
        else:
            with _file_shape("witness"):
                relators = [parse_word(w) for w in json_list(data["relators"], "relators")]
        with _file_shape("witness"):
            witness = NclWitness.from_json(data)
        ok = gentorsion.verify_ncl_witness(relators, witness)
        _dump({"verified": ok, "type": "ncl"}, args.out)
        return EXIT_OK if ok else EXIT_FOUND
    if args.free is not None:
        raise GtkitError("verify --free needs --ncl")
    if args.group is None or args.cert is None:
        raise GtkitError("verify needs --group and --cert, or --ncl")
    group = GroupFile(_load_json(args.group))
    G = group.require_amalgam("gt certificates require an amalgam group file")
    cert_data = _load_json(args.cert)
    with _file_shape("certificate"):
        cert = GtCertificate.from_json(G, cert_data)
    ok = gentorsion.verify_gt_certificate(G, cert)
    _dump({"verified": ok, "type": "gt-certificate"}, args.out)
    return EXIT_OK if ok else EXIT_FOUND


def _elem(args) -> str:
    if args.elem is None:
        raise GtkitError(f"search {args.what} requires --elem")
    return args.elem


# the optional flags each search target reads besides its bounds
_SEARCH_READS = {
    "gt": {"elem", "elt_letters"},
    "rtf": {"elt_letters"},
    "multimal": {"seeds", "elt_letters"},
    "nss-intersection": {"elem"},
}


def cmd_search(args) -> int:
    unread = [f"--{flag.replace('_', '-')}" for flag in ("elem", "seeds", "elt_letters")
              if getattr(args, flag) is not None and flag not in _SEARCH_READS[args.what]]
    if unread:
        raise GtkitError(f"search {args.what} does not read {' or '.join(unread)}")
    group = GroupFile(_load_json(args.group))
    bounds = _bounds(args)
    if args.what == "gt":
        G = group.require_amalgam("gt search requires an amalgam group file")
        g = G.parse_element(_elem(args))
        res = gentorsion.search_gt(G, g, bounds)
        out = {
            "found": res.found,
            "capped": res.capped,
            "nodes": res.nodes,
            "bounds": bounds.to_json(),
        }
        if res.found:
            out["certificate"] = res.certificate.to_json()
            _dump(out, args.out)
            return EXIT_FOUND
        _dump(out, args.out)
        return EXIT_ERROR if res.capped else EXIT_OK
    if not group.subgroup:
        raise GtkitError(f"{args.what} search requires a free or nonlo group file "
                         "with a nonempty subgroup")
    if args.what == "rtf":
        rep = gentorsion.check_rtf(group.alphabet, group.subgroup, bounds)
    elif args.what == "multimal":
        seeds = [group.subgroup[0]]
        if args.seeds is not None:
            words = args.seeds.split(";")
            if not all(w.strip() for w in words):
                raise GtkitError(f"--seeds needs nonempty ';'-separated words: {args.seeds!r}")
            seeds = [parse_word(w, group.alphabet) for w in words]
        rep = gentorsion.check_multimalnormal(
            group.alphabet, group.subgroup, seeds, bounds)
    elif args.what == "nss-intersection":
        alpha = parse_word(_elem(args), group.alphabet)
        rep = gentorsion.check_nss_intersection(
            group.alphabet, group.subgroup, alpha, bounds)
    else:
        raise GtkitError(f"unknown search target: {args.what!r}")
    _dump(rep.to_json(), args.out)
    if rep.violations:
        return EXIT_FOUND
    return EXIT_ERROR if (rep.capped or rep.inconclusive) else EXIT_OK


def cmd_build(args) -> int:
    if args.target == "w":
        pres = casestudy.build_w_presentation()
        _dump(pres.to_json(), args.out)
        return EXIT_OK
    if args.target == "onerelator":
        onerel = casestudy.build_onerelator_amalgam()
        data = onerel.amalgam.to_json()
        data["presentation_three_generators"] = \
            onerel.presentation_three_generators().to_json()
        _dump(data, args.out)
        return EXIT_OK
    if args.target == "nonlo":
        e = casestudy.sample_exponents(args.s, args.m, args.seed)
        casestudy.validate_exponent_matrix(e)
        _dump(casestudy.nonlo_json(e), args.out)
        return EXIT_OK
    raise GtkitError(f"unknown build target: {args.target!r}")


def cmd_abelianize(args) -> int:
    data = _load_json(args.pres)
    with _file_shape("presentation"):
        pres = Presentation.from_json(data)
    inv = abelianize_snf(pres)
    _dump({
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "trivial": inv.is_trivial,
        "group": str(inv),
    }, args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    from .suites import SUITE_PARAMS, SUITES, run_suite

    params = {}
    if args.s is not None:
        params["s"] = args.s
    if args.m is not None:
        params["m"] = args.m
    names = sorted(SUITES) if args.name == "all" else [args.name]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite: {name}", file=sys.stderr)
            return EXIT_ERROR
    # `all` forwards --s and --m only to the suites that read them; any
    # other suite rejects them
    reports = []
    for name in names:
        kw = {k: v for k, v in params.items() if k in SUITE_PARAMS[name]}
        if kw != params and args.name != "all":
            unread = " or ".join(f"--{k}" for k in params if k not in kw)
            raise GtkitError(f"suite {name} does not read {unread}")
        reports.append(run_suite(name, trials=args.trials, seed=args.seed, **kw))
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "reports": [r.to_json() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _dump(payload, args.out)
    return EXIT_OK if payload["ok"] else EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gtkit",
        description="Amalgam combinatorics: certificates, bounded searches, "
                    "builders and property suites.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, **kw):
        return sub.add_parser(name, allow_abbrev=False, **kw)

    pv = command("verify", help="verify a certificate or witness file")
    pv.add_argument("--group", help="amalgam group JSON")
    pv.add_argument("--cert", help="gt certificate JSON")
    pv.add_argument("--free", help="free-group presentation JSON (for --ncl)")
    pv.add_argument("--ncl", help="normal-closure witness JSON")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    ps = command("search", help="bounded searches and freeness checks")
    ps.add_argument("what", choices=["gt", "rtf", "multimal", "nss-intersection"])
    ps.add_argument("--group", required=True)
    ps.add_argument("--elem", help="element text (gt, nss-intersection)")
    ps.add_argument("--seeds", help="semicolon-separated seed words (multimal)")
    ps.add_argument("--radius", type=int, default=2)
    ps.add_argument("--max-n", dest="max_n", type=int)
    ps.add_argument("--max-k", dest="max_k", type=int)
    ps.add_argument("--elt-letters", dest="elt_letters", type=int,
                    help="factor-element letter bound (gt, rtf, multimal; default 2)")
    ps.add_argument("--node-cap", dest="node_cap", type=int, default=10 ** 6)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_search)

    pb = command("build", help="construct the example groups")
    pb.add_argument("target", choices=["w", "onerelator", "nonlo"])
    pb.add_argument("--s", type=int, default=10)
    pb.add_argument("--m", type=int, default=8)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_build)

    pa = command("abelianize", help="Smith-normal-form abelianization")
    pa.add_argument("--pres", required=True, help="presentation JSON")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_abelianize)

    pt = command("suite", help="run registered property suites")
    pt.add_argument("name", help="suite name or 'all'")
    pt.add_argument("--trials", type=int, default=200)
    pt.add_argument("--seed", type=int, default=7)
    pt.add_argument("--s", type=int)
    pt.add_argument("--m", type=int)
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError:
        traceback.print_exc()
        return EXIT_INTERNAL
    except (GtkitError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # a bug, never a verdict on the input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
