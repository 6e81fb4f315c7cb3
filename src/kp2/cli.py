"""Command-line interface.

Commands compute localization totals, graph censuses, asymptotic rows,
mirror series, and intersection numbers, or run the verification
suites.  Output is JSON by default (sorted keys, fully rational) so
identical configurations produce byte-identical output regardless of
thread count.

Exit codes: 0 success, 1 a verification failed, 2 usage error,
3 internal failure (a consistency check or any unexpected error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .anomaly import verify_lift, verify_ss56, verify_ttt
from .localization import (
    build_context,
    correlator,
    enumerate_graphs,
    normalize_tag,
    per_graph_contributions,
)
from .lring import RingElem, verify_drule
from .mgn import hodge_psi_integral, psi_integral
from .mirror import mirror_data, verify_pf
from .rseries import check_rows, extract_R_rows, verify_lemma_R
from .scalars import ConsistencyError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _default_threads() -> int:
    return int(os.environ.get("KP2_THREADS", "1"))


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kp2",
        description="Exact localization engine for the local plane geometry.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: KP2_THREADS or 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_fg = sub.add_parser("fg", parents=[common],
                          help="unpointed total at a genus")
    p_fg.add_argument("--genus", type=int, required=True)
    # Rows are sized per correlator, so --kmax has no effect; it is still
    # accepted because perfbench/selfcheck.py passes it.
    p_fg.add_argument("--kmax", type=int, help=argparse.SUPPRESS)
    p_fg.add_argument("--per-graph", action="store_true", dest="per_graph")

    p_cor = sub.add_parser("correlator", parents=[common],
                           help="pointed localization total")
    p_cor.add_argument("--genus", type=int, required=True)
    p_cor.add_argument("--legs", type=str, default=None,
                       help="comma-separated tags, e.g. H1,H2,psiH")
    p_cor.add_argument("--a", type=int, default=None, help="count of 1-insertions")
    p_cor.add_argument("--b", type=int, default=None, help="count of H-insertions")
    p_cor.add_argument("--c", type=int, default=None, help="count of H^2-insertions")
    p_cor.add_argument("--delta", type=int, default=None,
                       help="count of descendent insertions")

    p_gr = sub.add_parser("graphs", parents=[common],
                          help="census of stable graphs")
    p_gr.add_argument("--genus", type=int, required=True)
    p_gr.add_argument("--legs", type=int, default=0)

    p_rs = sub.add_parser("rseries", parents=[common],
                          help="asymptotic row entries as ring elements")
    p_rs.add_argument("--row", type=int, choices=(0, 1, 2), required=True)
    p_rs.add_argument("--kmax", type=int, default=3)

    p_mi = sub.add_parser("mirror", parents=[common],
                          help="normalizations and mirror-map series")
    p_mi.add_argument("--qmax", type=int, default=12)

    p_mg = sub.add_parser("mgn", parents=[common],
                          help="cotangent/Hodge intersection number")
    p_mg.add_argument("--g", type=int, required=True)
    p_mg.add_argument("--psi", type=str, default="",
                      help="comma-separated cotangent exponents")
    p_mg.add_argument("--lambda", type=str, default="", dest="lam",
                      help="comma-separated Hodge indices")

    p_ve = sub.add_parser("verify", help="run a verification suite")
    what = p_ve.add_subparsers(dest="what", required=True)

    v_pf = what.add_parser("pf", parents=[common],
                           help="differential-operator residual on the restricted series")
    v_pf.add_argument("--qmax", type=int, default=12)
    v_pf.add_argument("--zmax", type=int, default=8)

    v_hae = what.add_parser("hae", parents=[common],
                            help="unpointed anomaly identity")
    v_hae.add_argument("--genus", type=int, default=2)

    v_li = what.add_parser("lift", parents=[common],
                           help="pointed lifts of the T-derivatives")
    v_li.add_argument("--genus", type=int, default=2)

    v_ss = what.add_parser("ss56", parents=[common],
                           help="pointed anomaly identity with descendent term")
    v_ss.add_argument("--genus", type=int, required=True)
    v_ss.add_argument("--a", type=int, default=0)
    v_ss.add_argument("--b", type=int, default=0)
    v_ss.add_argument("--c", type=int, default=0)

    v_lr = what.add_parser("lemmaR", parents=[common],
                           help="ring rows against their recursions and z-expansions")
    v_lr.add_argument("--kmax", type=int, default=5)
    v_lr.add_argument("--qmax", type=int, default=None,
                      help="q-order of the expansions (default: max(12, 2*kmax + 2))")
    return parser


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        if args.threads < 1:
            raise ValueError("--threads must be positive")
        return args.threads
    return _default_threads()


def _graph_json(contribution) -> dict:
    graph = contribution.graph
    return {
        "signature": graph.signature(),
        "aut_order": graph.aut_order,
        "value": contribution.value.to_json(),
        "decorations": [
            {"labels": list(labels), "aut_order": aut, "value": val.to_json()}
            for labels, aut, val in contribution.per_decoration
        ],
    }


def _cmd_fg(args):
    if args.genus < 2:
        raise ValueError("fg needs --genus at least 2")
    threads = _threads(args)
    ctx = build_context()
    contribs = per_graph_contributions(ctx, args.genus, (), threads=threads)
    total = RingElem.zero()
    for item in contribs:
        total = total + item.value
    payload = {
        "command": "fg",
        "genus": args.genus,
        "kmax": ctx.kmax,
        "total": total.to_json(),
        "total_a2": total.to_a2_form().to_json(),
    }
    if args.per_graph:
        payload["graphs"] = [_graph_json(item) for item in contribs]
    lines = [f"F_{args.genus} = {total}"]
    if args.per_graph:
        for item in contribs:
            lines.append(f"{item.graph.signature()}: {item.value}")
    return EXIT_OK, payload, "\n".join(lines)


def _parse_insertions(args) -> tuple[str, ...]:
    counts = [args.a, args.b, args.c, args.delta]
    if args.legs is not None and any(v is not None for v in counts):
        raise ValueError("give either --legs or the count flags, not both")
    if args.legs is not None:
        tags = []
        for part in args.legs.split(","):
            part = part.strip()
            if not part:
                continue
            tags.append(normalize_tag(int(part) if part.isdigit() else part))
        return tuple(tags)
    a, b, c, delta = [v or 0 for v in counts]
    return ("H0",) * a + ("H1",) * b + ("H2",) * c + ("psiH",) * delta


def _cmd_correlator(args):
    insertions = _parse_insertions(args)
    if 2 * args.genus - 2 + len(insertions) <= 0:
        raise ValueError("unstable (genus, insertions) pair")
    threads = _threads(args)
    total = correlator(build_context(), args.genus, insertions, threads=threads)
    payload = {
        "command": "correlator",
        "genus": args.genus,
        "insertions": list(insertions),
        "total": total.to_json(),
    }
    text = f"<{', '.join(insertions)}>_{args.genus} = {total}"
    return EXIT_OK, payload, text


def _cmd_graphs(args):
    graphs = enumerate_graphs(args.genus, args.legs)
    payload = {
        "command": "graphs",
        "genus": args.genus,
        "legs": args.legs,
        "count": len(graphs),
        "graphs": [
            {
                "signature": g.signature(),
                "aut_order": g.aut_order,
                "genera": list(g.genera),
                "edges": [list(e) for e in g.edges],
            }
            for g in graphs
        ],
    }
    lines = [f"{len(graphs)} graphs at genus {args.genus} with {args.legs} legs"]
    lines += [f"  {g.signature()}  aut={g.aut_order}" for g in graphs]
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_rseries(args):
    row = extract_R_rows(args.kmax)[args.row]
    entries = [{"k": k, "value": entry.to_json()} for k, entry in enumerate(row)]
    payload = {
        "command": "rseries",
        "row": args.row,
        "kmax": args.kmax,
        "entries": entries,
    }
    lines = [f"R[{args.row},{k}] = {entry}" for k, entry in enumerate(row)]
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_mirror(args):
    data = mirror_data(args.qmax)
    series = {
        "C0": data.C0,
        "C1": data.C1,
        "C2": data.C2,
        "T_minus_logq": data.T_minus_logq,
        "Q_over_q": data.Qofq,
        "L": data.L,
        "X": data.X,
        "c": data.c,
    }
    payload = {"command": "mirror", "qmax": args.qmax}
    payload.update({name: s.to_json() for name, s in series.items()})
    lines = [f"{name}: {', '.join(s.to_json())}" for name, s in series.items()]
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_mgn(args):
    exps = _int_list(args.psi)
    lam = _int_list(args.lam)
    if lam:
        value = hodge_psi_integral(args.g, exps, lam)
    else:
        value = psi_integral(args.g, exps)
    payload = {
        "command": "mgn",
        "g": args.g,
        "psi": list(exps),
        "lambda": list(lam),
        "value": str(value),
    }
    return EXIT_OK, payload, str(value)


def _cmd_verify_pf(args):
    residuals = {}
    ok = True
    for i in range(3):
        res = verify_pf(i, args.qmax, args.zmax)
        zero = res.is_zero()
        residuals[str(i)] = zero
        ok = ok and zero
    payload = {
        "command": "verify",
        "what": "pf",
        "qmax": args.qmax,
        "zmax": args.zmax,
        "residual_zero": residuals,
        "pass": ok,
    }
    text = "pf: " + ("pass" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_VERIFY), payload, text


def _cmd_verify_hae(args):
    report = verify_ttt(build_context(), args.genus)
    payload = {"command": "verify", "what": "hae", "report": report.to_json()}
    text = f"hae genus {args.genus}: " + ("pass" if report.passed else "FAIL")
    return (EXIT_OK if report.passed else EXIT_VERIFY), payload, text


def _cmd_verify_lift(args):
    ctx = build_context()
    one = verify_lift(ctx, args.genus)
    two = verify_lift(ctx, args.genus, two_point=True)
    ok = one.passed and two.passed
    payload = {
        "command": "verify",
        "what": "lift",
        "one_point": one.to_json(),
        "two_point": two.to_json(),
        "pass": ok,
    }
    text = f"lift genus {args.genus}: " + ("pass" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_VERIFY), payload, text


def _cmd_verify_ss56(args):
    report = verify_ss56(build_context(), args.genus, args.a, args.b, args.c)
    payload = {"command": "verify", "what": "ss56", "report": report.to_json()}
    marks = f"(a={args.a}, b={args.b}, c={args.c})"
    text = f"ss56 genus {args.genus} {marks}: " + ("pass" if report.passed else "FAIL")
    return (EXIT_OK if report.passed else EXIT_VERIFY), payload, text


def _cmd_verify_lemma_r(args):
    kmax = args.kmax
    qmax = args.qmax if args.qmax is not None else max(12, 2 * kmax + 2)
    rows = extract_R_rows(kmax)
    mirror = mirror_data(qmax)
    verify_drule(mirror)
    relations = [
        {"name": name, "p": p, "zero": residual.is_zero()}
        for name, p, residual in verify_lemma_R(rows)
    ]
    # The recursions hold by construction of the rows; the z-expansions at
    # the three fixed points are the independent check that can fail.
    series = [
        {"i": i, "m": m, "k": k, "match": agrees}
        for i in range(3)
        for m, k, agrees in check_rows(mirror, rows, i)
    ]
    ok = all(item["zero"] for item in relations) and all(item["match"] for item in series)
    payload = {
        "command": "verify",
        "what": "lemmaR",
        "kmax": kmax,
        "qmax": qmax,
        "drule": "ok",
        "relations": relations,
        "series": series,
        "pass": ok,
    }
    text = "lemmaR: " + ("pass" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_VERIFY), payload, text


_VERIFIERS = {
    "pf": _cmd_verify_pf,
    "hae": _cmd_verify_hae,
    "lift": _cmd_verify_lift,
    "ss56": _cmd_verify_ss56,
    "lemmaR": _cmd_verify_lemma_r,
}

_COMMANDS = {
    "fg": _cmd_fg,
    "correlator": _cmd_correlator,
    "graphs": _cmd_graphs,
    "rseries": _cmd_rseries,
    "mirror": _cmd_mirror,
    "mgn": _cmd_mgn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            code, payload, text = _VERIFIERS[args.what](args)
        else:
            code, payload, text = _COMMANDS[args.command](args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 is reserved for a failed identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(json.dumps(payload, sort_keys=True) if args.format == "json" else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
