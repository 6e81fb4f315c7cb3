"""Command-line interface.

Commands compute localization totals, graph censuses, asymptotic rows,
mirror series, and intersection numbers, or run the verification
suites.  Output is JSON by default (sorted keys, fully rational) and
is assembled in a fixed order, so identical configurations produce
byte-identical output.

Each command imports the layers it runs when it runs, so a command loads
only what it computes with (and --help loads none of them).

Exit codes: 0 success, 1 a verification failed, 2 usage error,
3 internal failure (a consistency check or any unexpected error).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ConsistencyError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated integers of option's value text (empty text: none)."""
    if not text.strip():
        return ()
    items = []
    for part in text.split(","):
        try:
            items.append(int(part))
        except ValueError:
            kind = "non-integer" if part.strip() else "empty"
            raise ValueError(f"{kind} item in {option} {text!r}") from None
    return tuple(items)


def _add_subparsers(parser, dest: str, table: dict, chosen: str) -> argparse.Action:
    """One subparser per table entry.  Only the chosen one gets its
    arguments: the others are never parsed, and help lists them by name and
    help alone."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, arguments, _) in table.items():
        child = sub.add_parser(name, help=help_text)
        if arguments is not None and name == chosen:
            child.add_argument("--format", choices=("json", "text"), default="json")
            for flag, keywords in arguments:
                child.add_argument(flag, **keywords)
    return sub


def build_parser(argv) -> argparse.ArgumentParser:
    """The kp2 parser for argv.  Only the subcommand that argv selects (its
    first word; for verify, also the next) gets its arguments, which leaves
    every help text and usage error as with all of them."""
    parser = argparse.ArgumentParser(
        prog="kp2",
        description="Exact localization engine for the local plane geometry.",
    )
    command, suite = ([w for w in argv if not w.startswith("-")] + ["", ""])[:2]
    sub = _add_subparsers(parser, "command", _SUBCOMMANDS, command)
    if command == "verify":
        _add_subparsers(sub.choices["verify"], "what", _SUITES, suite)
    return parser


def _cmd_fg(args):
    from .localization import build_context, checked_total, per_graph_contributions

    if args.genus < 2:
        raise ValueError("fg needs --genus at least 2")
    ctx = build_context()
    contribs = per_graph_contributions(ctx, args.genus, ())
    total = checked_total(contribs, ())
    payload = {
        "genus": args.genus,
        "kmax": ctx.kmax,
        "total": total.to_json(),
        "total_a2": total.to_a2_form().to_json("A2"),
    }
    if args.per_graph:
        from .labelled import graph_json

        payload["graphs"] = [graph_json(item, ctx) for item in contribs]
    return None, payload, lambda: "\n".join([f"F_{args.genus} = {total}"] + [
        f"{item.graph.signature()}: {item.value}" for item in contribs if args.per_graph])


def _parse_insertions(args) -> tuple[str, ...]:
    from .localization import normalize_tag

    counts = [args.a, args.b, args.c, args.delta]
    if args.legs is not None and any(v is not None for v in counts):
        raise ValueError("give either --legs or the count flags, not both")
    if args.legs is not None:
        tags = []
        for part in args.legs.split(","):
            part = part.strip()
            if not part:
                raise ValueError(f"empty item in --legs {args.legs!r}")
            tags.append(normalize_tag(int(part) if part.isdigit() else part))
        return tuple(tags)
    for flag, v in zip(("--a", "--b", "--c", "--delta"), counts):
        if v is not None and v < 0:
            raise ValueError(f"{flag} must be non-negative, got {v}")
    a, b, c, delta = [v or 0 for v in counts]
    return ("H0",) * a + ("H1",) * b + ("H2",) * c + ("psiH",) * delta


def _cmd_correlator(args):
    from .localization import build_context, correlator

    insertions = _parse_insertions(args)
    total = correlator(build_context(), args.genus, insertions)
    payload = {
        "genus": args.genus,
        "insertions": list(insertions),
        "total": total.to_json(),
    }
    return None, payload, lambda: f"<{', '.join(insertions)}>_{args.genus} = {total}"


def _cmd_graphs(args):
    from .graphs import enumerate_graphs

    graphs = enumerate_graphs(args.genus, args.legs)
    payload = {
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
    return None, payload, lambda: "\n".join(
        [f"{len(graphs)} graphs at genus {args.genus} with {args.legs} legs"]
        + [f"  {g.signature()}  aut={g.aut_order}" for g in graphs])


def _cmd_rseries(args):
    from .rseries import extract_R_rows

    row = extract_R_rows(args.kmax)[args.row]
    entries = [{"k": k, "value": entry.to_json()} for k, entry in enumerate(row)]
    payload = {
        "row": args.row,
        "kmax": args.kmax,
        "entries": entries,
    }
    return None, payload, lambda: "\n".join(
        f"R[{args.row},{k}] = {entry}" for k, entry in enumerate(row))


def _cmd_mirror(args):
    from .mirror import mirror_data

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
    payload = {"qmax": args.qmax}
    payload.update({name: s.to_json() for name, s in series.items()})
    return None, payload, lambda: "\n".join(
        f"{name}: {', '.join(payload[name])}" for name in series)


def _cmd_mgn(args):
    from .mgn import hodge_psi_integral

    exps = _int_list(args.psi, "--psi")
    lam = _int_list(args.lam, "--lambda")
    value = hodge_psi_integral(args.g, exps, lam)
    payload = {
        "g": args.g,
        "psi": list(exps),
        "lambda": list(lam),
        "value": str(value),
    }
    return None, payload, lambda: payload["value"]


def _cmd_verify_pf(args):
    from .mirror import verify_pf

    residuals = {str(i): verify_pf(i, args.qmax, args.zmax).is_zero() for i in range(3)}
    ok = all(residuals.values())
    payload = {
        "qmax": args.qmax,
        "zmax": args.zmax,
        "residual_zero": residuals,
        "pass": ok,
    }
    return ok, payload, lambda: "pf: " + _verdict(ok)


def _verdict(ok: bool, *reports) -> str:
    """pass or FAIL, marked when one of the reports is vacuous."""
    text = "pass" if ok else "FAIL"
    if any(report.vacuous for report in reports if report is not None):
        text += " (vacuous: both sides are exactly zero)"
    return text


def _cmd_verify_hae(args):
    from .anomaly import verify_ttt
    from .localization import build_context

    report = verify_ttt(build_context(), args.genus)
    text = f"hae genus {args.genus}: " + _verdict(report.passed, report)
    return report.passed, {"report": report.to_json()}, lambda: text


def _cmd_verify_lift(args):
    from .anomaly import verify_lift
    from .localization import build_context

    ctx = build_context()
    one = verify_lift(ctx, args.genus)
    # the two-point form lives one genus down, so it starts at genus 2
    two = verify_lift(ctx, args.genus, two_point=True) if args.genus >= 2 else None
    ok = one.passed and (two is None or two.passed)
    payload = {
        "one_point": one.to_json(),
        "two_point": None if two is None else two.to_json(),
        "pass": ok,
    }
    text = f"lift genus {args.genus}: " + _verdict(ok, one, two)
    return ok, payload, lambda: text


def _cmd_verify_ss56(args):
    from .anomaly import verify_ss56
    from .localization import build_context

    report = verify_ss56(build_context(), args.genus, args.a, args.b, args.c)
    marks = f"(a={args.a}, b={args.b}, c={args.c})"
    text = f"ss56 genus {args.genus} {marks}: " + _verdict(report.passed, report)
    return report.passed, {"report": report.to_json()}, lambda: text


def _cmd_verify_lemma_r(args):
    from .mirror import check_rows, mirror_data
    from .rseries import extract_R_rows, verify_lemma_R

    kmax = args.kmax
    qmax = args.qmax if args.qmax is not None else max(12, 2 * kmax + 2)
    rows = extract_R_rows(kmax)
    mirror = mirror_data(qmax)
    mirror.verify_drule()
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
        "kmax": kmax,
        "qmax": qmax,
        "drule": "ok",
        "relations": relations,
        "series": series,
        "pass": ok,
    }
    return ok, payload, lambda: "lemmaR: " + _verdict(ok)


# Each subcommand: (help, arguments as (flag, add_argument keywords), handler).
# Every one but verify also takes --format; main runs the suite verify names.
# A handler returns (passed, payload, text).
_SUBCOMMANDS = {
    "fg": ("unpointed total at a genus", [
        ("--genus", dict(type=int, required=True)),
        # Rows are sized per correlator, so --kmax has no effect; it is still
        # accepted because perfbench/selfcheck.py passes it.
        ("--kmax", dict(type=int, help=argparse.SUPPRESS)),
        ("--per-graph", dict(action="store_true", dest="per_graph")),
    ], _cmd_fg),
    "correlator": ("pointed localization total", [
        ("--genus", dict(type=int, required=True)),
        ("--legs", dict(type=str, default=None, help="comma-separated tags, e.g. H1,H2,psiH")),
        ("--a", dict(type=int, default=None, help="count of 1-insertions")),
        ("--b", dict(type=int, default=None, help="count of H-insertions")),
        ("--c", dict(type=int, default=None, help="count of H^2-insertions")),
        ("--delta", dict(type=int, default=None, help="count of descendent insertions")),
    ], _cmd_correlator),
    "graphs": ("census of stable graphs", [
        ("--genus", dict(type=int, required=True)),
        ("--legs", dict(type=int, default=0)),
    ], _cmd_graphs),
    "rseries": ("asymptotic row entries as ring elements", [
        ("--row", dict(type=int, choices=(0, 1, 2), required=True)),
        ("--kmax", dict(type=int, default=3)),
    ], _cmd_rseries),
    "mirror": ("normalizations and mirror-map series", [
        ("--qmax", dict(type=int, default=12)),
    ], _cmd_mirror),
    "mgn": ("cotangent/Hodge intersection number", [
        ("--g", dict(type=int, required=True)),
        ("--psi", dict(type=str, default="", help="comma-separated cotangent exponents")),
        ("--lambda", dict(type=str, default="", dest="lam",
                          help="comma-separated Hodge indices")),
    ], _cmd_mgn),
    "verify": ("run a verification suite", None, None),
}
_SUITES = {
    "pf": ("differential-operator residual on the restricted series", [
        ("--qmax", dict(type=int, default=12)),
        ("--zmax", dict(type=int, default=8)),
    ], _cmd_verify_pf),
    "hae": ("unpointed anomaly identity", [
        ("--genus", dict(type=int, default=2))], _cmd_verify_hae),
    "lift": ("pointed lifts of the T-derivatives", [
        ("--genus", dict(type=int, default=2))], _cmd_verify_lift),
    "ss56": ("pointed anomaly identity with descendent term", [
        ("--genus", dict(type=int, required=True)),
        ("--a", dict(type=int, default=0)),
        ("--b", dict(type=int, default=0)),
        ("--c", dict(type=int, default=0)),
    ], _cmd_verify_ss56),
    "lemmaR": ("ring rows against their recursions and z-expansions", [
        ("--kmax", dict(type=int, default=5)),
        ("--qmax", dict(type=int, default=None,
                        help="q-order of the expansions (default: max(12, 2*kmax + 2))")),
    ], _cmd_verify_lemma_r),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    what = vars(args).get("what")
    try:
        passed, payload, text = (_SUITES[what] if what else _SUBCOMMANDS[args.command])[2](args)
        payload["command"] = args.command
        if what:
            payload["what"] = what
        out = json.dumps(payload, sort_keys=True) if args.format == "json" else text()
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 is reserved for a failed identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(out)
    return EXIT_VERIFY if passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
