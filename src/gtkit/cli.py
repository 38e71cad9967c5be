"""Command-line front end.

Exit codes follow one contract everywhere: 0 = verified / none-found,
1 = refuted / violation or certificate found, 2 = parse error, unknown
target, or a capped search that found nothing (inconclusive).
All randomness flows from --seed; reports embed the seed and bounds, and
identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import casestudy, gentorsion
from .amalgam import Amalgam
from .errors import GtkitError, PreconditionError
from .gentorsion import GtCertificate, NclWitness, SearchBounds
from .word import Presentation, abelianize_snf, parse_word

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2


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


class GroupFile:
    """Dispatch over the supported group file kinds.

    A file whose values have the wrong shape (a number where a list is
    expected, say) is rejected with PreconditionError, like any other
    malformed input.
    """

    def __init__(self, data):
        try:
            self._load(data)
        except (AttributeError, IndexError, TypeError) as exc:
            raise PreconditionError(f"malformed group file: {exc}") from exc

    def _load(self, data):
        self.kind = data.get("kind", "amalgam")
        self.data = data
        if self.kind == "amalgam":
            self.amalgam = Amalgam.from_json(data)
            self.alphabet = None
            self.subgroup = None
        elif self.kind == "free":
            self.amalgam = None
            self.alphabet = [_gen_token(t) for t in data["alphabet"]]
            self.subgroup = [parse_word(w, self.alphabet)
                             for w in data.get("subgroup", [])]
        elif self.kind == "nonlo":
            g = casestudy.NonLoGroup.from_json(data)
            self.nonlo = g
            self.amalgam = g.amalgam
            self.alphabet = [casestudy.A_GEN, casestudy.B_GEN]
            self.subgroup = g.alphas
        else:
            raise GtkitError(f"unknown group kind: {self.kind!r}")


def _gen_token(tok: str):
    w = parse_word(tok)
    return w.syls[0][0]


def _bounds(args) -> SearchBounds:
    return SearchBounds(
        radius=args.radius,
        max_n=getattr(args, "max_n", None) or getattr(args, "max_k", None) or 3,
        max_elt_letters=args.elt_letters,
        node_cap=args.node_cap,
        seed=args.seed,
    )


def cmd_verify(args) -> int:
    if args.ncl:
        data = _load_json(args.ncl)
        if args.free:
            free_data = _load_json(args.free)
            alphabet = [_gen_token(t) for t in free_data["alphabet"]]
            relators = [parse_word(w, alphabet) for w in free_data["relators"]]
        else:
            relators = [parse_word(w) for w in data["relators"]]
        witness = NclWitness.from_json(data)
        ok = gentorsion.verify_ncl_witness(relators, witness)
        _dump({"verified": ok, "type": "ncl"}, args.out)
        return EXIT_OK if ok else EXIT_FOUND
    group = GroupFile(_load_json(args.group))
    if group.amalgam is None:
        raise GtkitError("gt certificates require an amalgam group file")
    cert = GtCertificate.from_json(group.amalgam, _load_json(args.cert))
    ok = gentorsion.verify_gt_certificate(group.amalgam, cert)
    _dump({"verified": ok, "type": "gt-certificate"}, args.out)
    return EXIT_OK if ok else EXIT_FOUND


def cmd_search(args) -> int:
    group = GroupFile(_load_json(args.group))
    bounds = _bounds(args)
    if args.what == "gt":
        if group.amalgam is None:
            raise GtkitError("gt search requires an amalgam group file")
        g = group.amalgam.parse_element(args.elem)
        res = gentorsion.search_gt(group.amalgam, g, bounds)
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
    if group.subgroup is None:
        raise GtkitError(f"{args.what} search requires a free or nonlo group file")
    if args.what == "rtf":
        rep = gentorsion.check_rtf(group.alphabet, group.subgroup, bounds)
    elif args.what == "multimal":
        seeds = ([parse_word(w, group.alphabet) for w in args.seeds.split(";")]
                 if args.seeds else [group.subgroup[0]])
        rep = gentorsion.check_multimalnormal(
            group.alphabet, group.subgroup, seeds, bounds)
    elif args.what == "nss-intersection":
        alpha = parse_word(args.elem, group.alphabet)
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
        g = casestudy.build_nonlo(e)
        _dump(g.to_json(), args.out)
        return EXIT_OK
    raise GtkitError(f"unknown build target: {args.target!r}")


def cmd_abelianize(args) -> int:
    pres = Presentation.from_json(_load_json(args.pres))
    inv = abelianize_snf(pres)
    _dump({
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "trivial": inv.is_trivial,
        "group": str(inv),
    }, args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    from .suites import SUITES, run_suite

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
    reports = []
    for name in names:
        kw = dict(params) if name in ("lemma_small_cancellation",
                                      "nonlo_witnesses") else {}
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
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a certificate or witness file")
    pv.add_argument("--group", help="amalgam group JSON")
    pv.add_argument("--cert", help="gt certificate JSON")
    pv.add_argument("--free", help="free-group presentation JSON (for --ncl)")
    pv.add_argument("--ncl", help="normal-closure witness JSON")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("search", help="bounded searches and freeness checks")
    ps.add_argument("what", choices=["gt", "rtf", "multimal", "nss-intersection"])
    ps.add_argument("--group", required=True)
    ps.add_argument("--elem", help="element text (gt, nss-intersection)")
    ps.add_argument("--seeds", help="semicolon-separated seed words (multimal)")
    ps.add_argument("--radius", type=int, default=2)
    ps.add_argument("--max-n", dest="max_n", type=int)
    ps.add_argument("--max-k", dest="max_k", type=int)
    ps.add_argument("--elt-letters", dest="elt_letters", type=int, default=2)
    ps.add_argument("--node-cap", dest="node_cap", type=int, default=10 ** 6)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_search)

    pb = sub.add_parser("build", help="construct the example groups")
    pb.add_argument("target", choices=["w", "onerelator", "nonlo"])
    pb.add_argument("--s", type=int, default=10)
    pb.add_argument("--m", type=int, default=8)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_build)

    pa = sub.add_parser("abelianize", help="Smith-normal-form abelianization")
    pa.add_argument("--pres", required=True, help="presentation JSON")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_abelianize)

    pt = sub.add_parser("suite", help="run registered property suites")
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
    except (GtkitError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
