"""Command-line surface.  Every subcommand validates its flags, exits
nonzero with a diagnostic on a precondition failure, and writes exactly one
machine-readable report, to which ``main`` adds the ``--seed`` value.  All
scalars are serialized as decimal strings ("p/q" for rationals); no binary
floats appear anywhere, and identical inputs with the same seed produce
byte-identical output.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import combsum, independence, invariants, sixj
from .forms import BinaryForm, generic_form, load_form, random_form
from .invariants import form_text_hash
from .umbral import parse_bracket, umbral_eval

# -- the command table -----------------------------------------------------
#
# One description of the command line, read by ``build_parser`` (argparse,
# for help and errors) and by ``fast_parse`` (exact argv only).  A command
# path maps to (help, flags): a group has flags None and takes the
# subcommands whose paths extend it; a leaf's flags, followed by
# ``COMMON_FLAGS``, are (name, add_argument keywords) in help order.  A
# subcommand's value goes to ``cmd`` at the top and to ``<group>_cmd`` below
# it; a flag's dest is argparse's own, from its name.  A help of None adds
# the subcommand without a help line, as argparse does when none is given.
# Only ``type=int``, ``action="store_true"``, ``choices``, ``required`` and
# ``default`` may appear in the keywords besides ``help``: the fast parser
# interprets exactly those.

COMMON_FLAGS = (
    ("--seed", {"type": int, "default": 0, "help": "seed for any random sampling"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
    ("--out", {"default": None, "help": "output path (default stdout)"}),
    ("--jobs", {"type": int, "default": 1, "help": "accepted; has no effect"}),
)

_FORM_SOURCE = (
    ("--form", {"default": None, "help": "JSON form file"}),
    ("--generic", {"action": "store_true"}),
    ("--random", {"action": "store_true"}),
)
_DEGREE = ("--d", {"type": int, "required": True, "help": "form degree"})
_REQUIRED_INT = {"type": int, "required": True}

DESCRIPTION = (
    "exact invariants of binary forms, combinatorial identity "
    "suites, independence certificates, and 6j sign grids"
)

COMMANDS = {
    ("combsum",): ("alternating binomial sums and N(k,r)", None),
    ("combsum", "ups"): ("evaluate ups(a1,...,am)", (
        ("--args", {"required": True, "help": "comma-separated integers"}),
        ("--method", {"choices": ("direct", "recursive", "closed"), "default": "direct"}),
    )),
    ("combsum", "nkr"): ("evaluate N(k,r)", (
        ("--k", _REQUIRED_INT),
        ("--r", _REQUIRED_INT),
        ("--via-ups", {"action": "store_true"}),
    )),
    ("invariant",): ("trace and charpoly invariants", None),
    ("invariant", "P"): (None, (_DEGREE, ("--n", _REQUIRED_INT), ("--p", _REQUIRED_INT)) + _FORM_SOURCE),
    ("invariant", "H"): (None, (_DEGREE, ("--n", _REQUIRED_INT)) + _FORM_SOURCE),
    ("invariant", "shioda"): (None, (
        _DEGREE,
        ("--idx", {"type": int, "choices": (2, 3, 4, 5), "required": True}),
    ) + _FORM_SOURCE),
    ("independence",): ("Jacobian rank certificate", (
        ("--k", _REQUIRED_INT),
        ("--random-point", {"action": "store_true"}),
    )),
    ("octavic",): ("octavic identity certificates", None),
    ("octavic", "verify"): (None, ()),
    ("sixj",): ("6j nonvanishing sums and sign grids", None),
    ("sixj", "value"): (None, (("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT))),
    ("sixj", "scan"): (None, (("--kmax", _REQUIRED_INT), ("--nmax", _REQUIRED_INT))),
    ("sixj", "grid"): (None, (
        ("--rows", {"type": int, "default": 201}),
        ("--cols", {"type": int, "default": 201}),
    )),
    ("bracket",): ("evaluate bracket monomials", None),
    ("bracket", "eval"): (None, (
        ("--expr", {"required": True, "help": 'e.g. "(a b)^4 (b c)^4 (c a)^4 ; deg=8"'}),
        ("--form", {"default": None}),
        ("--generic", {"action": "store_true"}),
    )),
}


def _subcommand_dest(group: tuple[str, ...]) -> str:
    return f"{group[0]}_cmd" if group else "cmd"


def _flag_dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _csv_escape(v) -> str:
    s = v if isinstance(v, str) else json.dumps(v, sort_keys=True)
    if any(ch in s for ch in ",\"\r\n"):
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


def _emit(report: dict, args: SimpleNamespace) -> None:
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


_SOURCE_FLAGS = {"form": "--form FILE", "generic": "--generic", "random": "--random"}


def _form_source(args: SimpleNamespace) -> str:
    """The report's label ("file", "generic" or "random") of the one form
    source given; a ValueError unless exactly one of the command's source
    flags is given."""
    offered = [name for name in _SOURCE_FLAGS if hasattr(args, name)]
    picked = [name for name in offered if getattr(args, name)]
    if len(picked) != 1:
        raise ValueError("choose exactly one of " + ", ".join(_SOURCE_FLAGS[name] for name in offered))
    return "file" if picked[0] == "form" else picked[0]


def _resolve_form(args: SimpleNamespace, d: int) -> tuple[BinaryForm, str]:
    """The form of degree d from the one source given, and its label."""
    source = _form_source(args)
    if source == "file":
        f = load_form(args.form)
        if f.degree != d:
            raise ValueError(f"form file has degree {f.degree}, expected {d}")
        return f, source
    if source == "generic":
        return generic_form(d), source
    return random_form(d, random.Random(args.seed)), source


# -- subcommand handlers ---------------------------------------------------

def _run_combsum(args: SimpleNamespace) -> dict:
    if args.combsum_cmd == "ups":
        values = _parse_int_list(args.args)
        if not values:
            raise ValueError("--args needs at least one integer")
        report = {"args": values, "method": args.method}
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
    return {"k": args.k, "r": args.r, "value": str(value), "route": route}


def _run_invariant(args: SimpleNamespace) -> dict:
    form, source = _resolve_form(args, args.d)
    report = {"d": args.d, "source": source}
    if source != "generic":
        report["coeffs"] = [str(c) for c in form.coeffs]
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


def _run_independence(args: SimpleNamespace) -> dict:
    return independence.independence_certificate(
        args.k, include_random_point=args.random_point, seed=args.seed
    )


def _run_octavic(args: SimpleNamespace) -> dict:
    checks = invariants.octavic_identity_report()
    return {"identities": checks, "pass": all(c["pass"] for c in checks)}


def _run_sixj(args: SimpleNamespace) -> dict | None:
    if args.sixj_cmd == "value":
        return {"k": args.k, "n": args.n, "S": str(sixj.sixj_sum(args.k, args.n))}
    if args.sixj_cmd == "scan":
        zeros = sixj.scan_zeros(args.kmax, args.nmax)
        return {"kmax": args.kmax, "nmax": args.nmax, "zeros": [[k, n] for k, n in zeros]}
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


def _run_bracket(args: SimpleNamespace) -> dict:
    source = _form_source(args)
    form = load_form(args.form) if source == "file" else None
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
    coeffs = [str(c) for c in value.coeffs]
    return {
        "expr": args.expr,
        "degree": d,
        "order": value.degree,
        "coeffs": coeffs,
        "sha256": form_text_hash(value.degree, coeffs),
        "source": source,
    }


def build_parser():
    """The argparse tree of ``COMMANDS``: the route for help and errors.

    ``argparse`` is imported here, not at module level: a valid argv never
    reaches it (``fast_parse``), so a cold start does not pay for it."""
    import argparse

    parsers = {(): argparse.ArgumentParser(prog="binform", description=DESCRIPTION)}
    groups = {}
    for path, (help_text, flags) in COMMANDS.items():
        group = path[:-1]
        if group not in groups:
            groups[group] = parsers[group].add_subparsers(dest=_subcommand_dest(group), required=True)
        extra = {} if help_text is None else {"help": help_text}
        parser = parsers[path] = groups[group].add_parser(path[-1], **extra)
        if flags is not None:
            for name, keywords in flags + COMMON_FLAGS:
                parser.add_argument(name, **keywords)
    return parsers[()]


def fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The fields of the namespace ``build_parser().parse_args(argv)``
    returns, for an exact argv only; None for anything else.

    Exact means: the full command names, then each flag of the leaf at most
    once, spelled in full, a valued flag as ``--flag value`` with a value
    that does not start with "-", and every required flag given.  Values are
    converted and checked as argparse does.  Help, ``--flag=value``,
    abbreviations, negative numbers, repeats and every error are left to
    argparse, which reports them.
    """
    values = {}
    path = ()
    flags = None
    i = 0
    while flags is None:
        if i == len(argv) or path + (argv[i],) not in COMMANDS:
            return None
        values[_subcommand_dest(path)] = argv[i]
        path += (argv[i],)
        flags = COMMANDS[path][1]
        i += 1
    spec = dict(flags + COMMON_FLAGS)
    given = {}
    while i < len(argv):
        name = argv[i]
        keywords = spec.get(name)
        if keywords is None or name in given:
            return None
        if keywords.get("action") == "store_true":
            given[name] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if keywords.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[name] = value
        i += 2
    for name, keywords in spec.items():
        if name in given:
            values[_flag_dest(name)] = given[name]
        elif keywords.get("required"):
            return None
        else:
            values[_flag_dest(name)] = False if keywords.get("action") == "store_true" else keywords.get("default")
    return SimpleNamespace(**values)


_HANDLERS = {
    "combsum": _run_combsum,
    "invariant": _run_invariant,
    "independence": _run_independence,
    "octavic": _run_octavic,
    "sixj": _run_sixj,
    "bracket": _run_bracket,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        report = _HANDLERS[args.cmd](args)
        if report is not None:
            report["seed"] = args.seed
            _emit(report, args)
    except (ValueError, ArithmeticError, OSError, KeyError, TypeError) as exc:
        print(f"binform: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
