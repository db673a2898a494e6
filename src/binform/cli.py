"""Command-line surface.  Every subcommand validates its flags, exits
nonzero with a diagnostic on a precondition failure, and writes exactly one
machine-readable report.  All scalars are serialized as decimal strings
("p/q" for rationals); no binary floats appear anywhere, and identical
inputs with the same seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import combsum, independence, invariants, sixj
from .forms import BinaryForm, generic_form, load_form, random_form
from .invariants import covariant_hash
from .umbral import parse_bracket, umbral_eval


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for any random sampling")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")


def _csv_escape(v) -> str:
    s = v if isinstance(v, str) else json.dumps(v, sort_keys=True)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _to_csv(report: dict) -> str:
    """Flat key,value rendering; list-of-dict fields become their own rows."""
    lines = ["key,value\n"]
    for key in sorted(report):
        val = report[key]
        if isinstance(val, list) and val and all(isinstance(x, dict) for x in val):
            cols = sorted(val[0])
            lines.append(f"{key},\n")
            lines.append(",".join(cols) + "\n")
            for rec in val:
                lines.append(",".join(_csv_escape(rec.get(c, "")) for c in cols) + "\n")
        else:
            lines.append(f"{key},{_csv_escape(val)}\n")
    return "".join(lines)


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _to_csv(report)
    if args.out:
        data = text.encode("ascii")  # before the open, so a failure leaves no file
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _resolve_form(args: argparse.Namespace, d: int) -> tuple[BinaryForm, str]:
    """Pick the form source; exactly one of --form/--generic/--random."""
    picked = [name for name in ("form", "generic", "random") if getattr(args, name, None)]
    if len(picked) != 1:
        raise ValueError("choose exactly one of --form FILE, --generic, --random")
    if args.form:
        f = load_form(args.form)
        if f.degree != d:
            raise ValueError(f"form file has degree {f.degree}, expected {d}")
        return f, "file"
    if args.generic:
        return generic_form(d), "generic"
    return random_form(d, random.Random(args.seed)), "random"


def _form_report(form: BinaryForm) -> list[str]:
    return [str(c) for c in form.coeffs]


# -- subcommand handlers ---------------------------------------------------

def _run_combsum(args: argparse.Namespace) -> dict:
    if args.combsum_cmd == "ups":
        values = _parse_int_list(args.args)
        if not values:
            raise ValueError("--args needs at least one integer")
        report = {"args": values, "method": args.method, "seed": args.seed}
        if args.method == "direct":
            report["value"] = str(combsum.ups_direct(values))
        elif args.method == "recursive":
            report["value"] = str(combsum.ups_recursive(values))
        else:
            value, formula = combsum.ups_closed(values)
            report["value"] = str(value)
            report["closed_form"] = formula
        return report
    # nkr
    if args.via_ups:
        if args.k % 2 or args.r % 2 == 0:
            raise ValueError("--via-ups needs even k and odd r")
        p, q = args.k // 2, (args.r - 1) // 2
        value = combsum.nkr_via_ups(p, q)
        route = "via_ups"
    else:
        value = combsum.nkr(args.k, args.r)
        route = "direct"
    return {"k": args.k, "r": args.r, "value": str(value), "route": route, "seed": args.seed}


def _run_invariant(args: argparse.Namespace) -> dict:
    form, source = _resolve_form(args, args.d)
    report = {"d": args.d, "source": source, "seed": args.seed}
    if source != "generic":
        report["coeffs"] = _form_report(form)
    if args.invariant_cmd == "P":
        value = invariants.trace_invariant(form, args.n, args.p)
        report.update({"n": args.n, "p": args.p, "value": str(value)})
    elif args.invariant_cmd == "H":
        coeffs = invariants.charpoly_invariants(form, args.n)
        report.update({"n": args.n, "charpoly": [str(c) for c in coeffs]})
    else:  # shioda
        value = invariants.shioda_invariant(args.idx, form)
        report.update({"idx": args.idx, "value": str(value)})
    return report


def _run_independence(args: argparse.Namespace) -> dict:
    report = independence.independence_certificate(
        args.k, include_random_point=args.random_point, seed=args.seed
    )
    report["seed"] = args.seed
    return report


def _run_octavic(args: argparse.Namespace) -> dict:
    checks = invariants.octavic_identity_report()
    return {
        "identities": checks,
        "pass": all(c["pass"] for c in checks),
        "seed": args.seed,
    }


def _run_sixj(args: argparse.Namespace) -> dict | None:
    if args.sixj_cmd == "value":
        return {"k": args.k, "n": args.n, "S": str(sixj.sixj_sum(args.k, args.n)), "seed": args.seed}
    if args.sixj_cmd == "scan":
        zeros = sixj.scan_zeros(args.kmax, args.nmax)
        return {
            "kmax": args.kmax,
            "nmax": args.nmax,
            "zeros": [[k, n] for k, n in zeros],
            "seed": args.seed,
        }
    # grid: the written file is the report; its name is checked before any cell is computed
    if not args.out:
        raise ValueError("sixj grid requires --out FILE.ppm or FILE.csv")
    if args.out.endswith(".ppm"):
        render = sixj.grid_to_ppm
    elif args.out.endswith(".csv"):
        render = sixj.grid_to_csv
    else:
        raise ValueError(f"grid output must end in .ppm or .csv, got {args.out!r}")
    text = render(sixj.sign_grid(rows=args.rows, cols=args.cols))
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return None


def _run_bracket(args: argparse.Namespace) -> dict:
    if args.form:
        form = load_form(args.form)
        source = "file"
    elif args.generic:
        form = None
        source = "generic"
    else:
        raise ValueError("choose one of --form FILE or --generic")
    mono = parse_bracket(args.expr, default_degree=form.degree if form else None)
    degrees = {mono.degrees[u] for u in mono.letters}
    if len(degrees) != 1:
        raise ValueError("all letters must share one degree for CLI evaluation")
    (d,) = degrees
    if form is None:
        form = generic_form(d)
    elif form.degree != d:
        raise ValueError(f"form has degree {form.degree}, expression wants {d}")
    value = umbral_eval(mono, {u: form for u in mono.letters})
    return {
        "expr": args.expr,
        "degree": d,
        "order": value.degree,
        "coeffs": [str(c) for c in value.coeffs],
        "sha256": covariant_hash(value),
        "source": source,
        "seed": args.seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binform",
        description="exact invariants of binary forms, combinatorial identity "
        "suites, independence certificates, and 6j sign grids",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_comb = sub.add_parser("combsum", help="alternating binomial sums and N(k,r)")
    comb_sub = p_comb.add_subparsers(dest="combsum_cmd", required=True)
    p_ups = comb_sub.add_parser("ups", help="evaluate ups(a1,...,am)")
    p_ups.add_argument("--args", required=True, help="comma-separated integers")
    p_ups.add_argument("--method", choices=("direct", "recursive", "closed"), default="direct")
    _common_flags(p_ups)
    p_nkr = comb_sub.add_parser("nkr", help="evaluate N(k,r)")
    p_nkr.add_argument("--k", type=int, required=True)
    p_nkr.add_argument("--r", type=int, required=True)
    p_nkr.add_argument("--via-ups", dest="via_ups", action="store_true")
    _common_flags(p_nkr)

    p_inv = sub.add_parser("invariant", help="trace and charpoly invariants")
    inv_sub = p_inv.add_subparsers(dest="invariant_cmd", required=True)
    for name in ("P", "H", "shioda"):
        q = inv_sub.add_parser(name)
        q.add_argument("--d", type=int, required=True, help="form degree")
        if name == "P":
            q.add_argument("--n", type=int, required=True)
            q.add_argument("--p", type=int, required=True)
        elif name == "H":
            q.add_argument("--n", type=int, required=True)
        else:
            q.add_argument("--idx", type=int, choices=(2, 3, 4, 5), required=True)
        q.add_argument("--form", default=None, help="JSON form file")
        q.add_argument("--generic", action="store_true")
        q.add_argument("--random", action="store_true")
        _common_flags(q)

    p_ind = sub.add_parser("independence", help="Jacobian rank certificate")
    p_ind.add_argument("--k", type=int, required=True)
    p_ind.add_argument("--random-point", dest="random_point", action="store_true")
    _common_flags(p_ind)

    p_oct = sub.add_parser("octavic", help="octavic identity certificates")
    oct_sub = p_oct.add_subparsers(dest="octavic_cmd", required=True)
    p_ver = oct_sub.add_parser("verify")
    _common_flags(p_ver)

    p_sixj = sub.add_parser("sixj", help="6j nonvanishing sums and sign grids")
    sixj_sub = p_sixj.add_subparsers(dest="sixj_cmd", required=True)
    p_val = sixj_sub.add_parser("value")
    p_val.add_argument("--k", type=int, required=True)
    p_val.add_argument("--n", type=int, required=True)
    _common_flags(p_val)
    p_scan = sixj_sub.add_parser("scan")
    p_scan.add_argument("--kmax", type=int, required=True)
    p_scan.add_argument("--nmax", type=int, required=True)
    _common_flags(p_scan)
    p_grid = sixj_sub.add_parser("grid")
    p_grid.add_argument("--rows", type=int, default=201)
    p_grid.add_argument("--cols", type=int, default=201)
    _common_flags(p_grid)

    p_br = sub.add_parser("bracket", help="evaluate bracket monomials")
    br_sub = p_br.add_subparsers(dest="bracket_cmd", required=True)
    p_ev = br_sub.add_parser("eval")
    p_ev.add_argument("--expr", required=True, help='e.g. "(a b)^4 (b c)^4 (c a)^4 ; deg=8"')
    p_ev.add_argument("--form", default=None)
    p_ev.add_argument("--generic", action="store_true")
    _common_flags(p_ev)

    return parser


_HANDLERS = {
    "combsum": _run_combsum,
    "invariant": _run_invariant,
    "independence": _run_independence,
    "octavic": _run_octavic,
    "sixj": _run_sixj,
    "bracket": _run_bracket,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        report = _HANDLERS[args.cmd](args)
        if report is not None:
            _emit(report, args)
    except (ValueError, ArithmeticError, OSError, KeyError, TypeError) as exc:
        print(f"binform: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
