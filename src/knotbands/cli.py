"""Command line front end.

Exit codes: 0 when every requested check is consistent, 1 for any input
or usage problem, 2 when a checker reports an obstruction (or the verify
battery finds failures), 141 when the reader of stdout closed it early
(as in ``knotbands ... | head``; 141 = 128 + SIGPIPE is what a shell
reports for a command killed by a broken pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import fp_abelian_invariants
from .bandform import (
    BandSurface,
    NormalFormError,
    analyze_surface,
    core_route,
    gamma_self_linking,
    klein_bottle_for_cables,
    mobius_band,
)
from .invariants import (
    DEFAULT_SAMPLES,
    Omega,
    alexander,
    alexander_cable2,
    arf,
    determinant_knot,
    levine_tristram,
    signature,
)
from .obstruct import cable_concordance_check, slice_obstruction_report
from .presets import get_preset, preset_names
from .record import known_keys


class _Parser(argparse.ArgumentParser):
    # input problems must exit 1, not argparse's default 2 (which is
    # reserved for obstructed verdicts)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like JSON, else a file path. An
    argument that names no file but is JSON of another type (5, true,
    "x") is reported as that, not as a missing file."""
    s = text.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    try:
        with open(text) as fh:
            return json.load(fh)
    except FileNotFoundError as missing:
        try:
            json.loads(s)
        except ValueError:
            raise missing from None
        raise ValueError(f"expected a JSON object or list, got {s}") from None


def _route(obj):
    """A core route from parsed JSON: a list of [over_slot, under_slot,
    sign] triples."""
    if not isinstance(obj, list):
        raise ValueError(
            f"a core route must be a JSON list of [over_slot, under_slot, sign] "
            f"triples, got {obj!r}"
        )
    return core_route(obj)


def _knot_record(args, flag: str, preset_flag: str):
    """(Seifert matrix, core route) of a preset or a JSON knot record; the
    route is None when the record has no "core_route"."""
    name = getattr(args, preset_flag, None)
    if name is not None:
        pk = get_preset(name)
        return pk.seifert, (pk.core_route or ())
    obj = _load_json_arg(getattr(args, flag))
    if isinstance(obj, dict):
        known_keys(obj, ("seifert", "core_route"), "knot record")
    if not isinstance(obj, dict) or "seifert" not in obj:
        raise ValueError(
            'knot record must be a JSON object with a "seifert" matrix '
            'and optional "core_route" crossing list'
        )
    route = obj.get("core_route")
    return obj["seifert"], None if route is None else _route(route)


def _klein_core(args, knot: str):
    """The core route of K or J for ``klein``: a preset's (a preset without
    one, the figure-eight, gets the unknot core) or a JSON crossing list."""
    name = getattr(args, f"preset{knot}")
    if name is not None:
        return get_preset(name).core_route or ()
    return _route(_load_json_arg(getattr(args, f"core{knot}")))


def _samples(args):
    raw = getattr(args, "samples", None)
    if raw is None:
        return DEFAULT_SAMPLES
    data = _load_json_arg(raw)
    if not isinstance(data, list) or not data:
        raise ValueError("samples must be a non-empty JSON list")
    return tuple(Omega.from_json(item) for item in data)


def _shape_json(sh):
    return {
        "orientable": sh.orientable,
        "genus": sh.genus,
        "euler": sh.euler,
        "boundary_components": sh.boundary_components,
    }


def _matrix_text(rows) -> str:
    if not rows:
        return "  []"
    cells = [[str(x) for x in r] for r in rows]
    width = max(len(c) for r in cells for c in r)
    return "\n".join("  [" + " ".join(c.rjust(width) for c in r) + "]" for r in cells)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_invariants(args) -> int:
    if args.preset is not None:
        v = get_preset(args.preset).seifert
    else:
        v = _load_json_arg(args.seifert)
    samples = _samples(args)
    delta = alexander(v)  # rejects a degenerate matrix before any signature
    table = []
    for omega in samples:
        s = levine_tristram(v, omega)
        table.append(
            {
                "omega": omega.to_json(),
                "signature": s.value,
                "singular": s.singular,
            }
        )
    payload = {
        "alexander": delta.to_string(),
        "signature": signature(v),
        "determinant": determinant_knot(seifert=v),
        "arf": arf(v),
        "levine_tristram": table,
    }
    lines = [
        f"alexander:   {payload['alexander']}",
        f"signature:   {payload['signature']}",
        f"determinant: {payload['determinant']}",
        f"arf:         {payload['arf']}",
        "levine-tristram:",
    ]
    for omega, row in zip(samples, table):
        val = "singular" if row["singular"] else str(row["signature"])
        lines.append(f"  {omega.label():<12} {val}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_band(args) -> int:
    if args.preset is not None:
        pk = get_preset(args.preset)
        F = pk.orientable_surface if args.kind == "orientable" else pk.nonorientable_surface
    else:
        F = BandSurface.from_json(_load_json_arg(args.surface))
    surface = analyze_surface(F)
    sh, f, G = surface.shape, surface.framing, surface.gl_form
    try:
        sl = gamma_self_linking(F)
    except NormalFormError:
        sl = None
    payload = {
        "shape": _shape_json(sh),
        "framing": f,
        "gl_form": [list(r) for r in G],
        "gamma_self_linking": sl,
    }
    kind = "orientable" if sh.orientable else "non-orientable"
    lines = [
        f"shape: {kind} genus {sh.genus}, euler {sh.euler}, "
        f"{sh.boundary_components} boundary component(s)",
        f"framing: {f}",
        "gl_form:",
        _matrix_text(G),
        f"gamma self-linking: {'n/a (not in normal form)' if sl is None else sl}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_cable(args) -> int:
    v, route = _knot_record(args, "knot", "preset")
    p = args.p
    # a malformed matrix is reported before a missing route
    delta_cable = alexander_cable2(alexander(v), p)
    if route is None:
        raise ValueError(
            'cable needs the knot record\'s "core_route": the Möbius band follows '
            "the knot's crossings, which its Seifert matrix does not give"
        )
    F = mobius_band(route, p)
    surface = analyze_surface(F)
    G = surface.gl_form
    payload = {
        "p": p,
        "surface": F.to_json(),
        "framing": surface.framing,
        "gl_form": [list(r) for r in G],
        "alexander": delta_cable.to_string(),
        "determinant": abs(delta_cable.evaluate_int(-1)),
        "arf": arf(delta_cable),
    }
    lines = [
        f"(2,{p}) cable on a Möbius band with {p} half-twists",
        f"framing: {payload['framing']}",
        "gl_form:",
        _matrix_text(G),
        f"alexander:   {payload['alexander']}",
        f"determinant: {payload['determinant']}",
        f"arf:         {payload['arf']}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_klein(args) -> int:
    F = klein_bottle_for_cables(_klein_core(args, "K"), _klein_core(args, "J"), args.p)
    surface = analyze_surface(F)
    G = surface.gl_form
    report = slice_obstruction_report(surface)
    payload = {
        "p": args.p,
        "surface": F.to_json(),
        "shape": _shape_json(surface.shape),
        "framing": surface.framing,
        "gl_form": [list(r) for r in G],
        "slice_screen": report.to_json(),
    }
    lines = [
        f"zero-framed punctured Klein bottle for K_(2,{args.p}) # J_(2,{-args.p})",
        f"framing: {payload['framing']}",
        "gl_form:",
        _matrix_text(G),
        "slice screen:",
        report.to_text(),
    ]
    _emit(args, payload, "\n".join(lines))
    return 2 if report.verdict == "obstructed" else 0


def _cmd_obstruct_cable(args) -> int:
    v_k, _ = _knot_record(args, "K", "presetK")
    v_j, _ = _knot_record(args, "J", "presetJ")
    report = cable_concordance_check(v_k, v_j, args.p, _samples(args))
    _emit(args, report.to_json(), report.to_text())
    return 2 if report.verdict == "obstructed" else 0


def _cmd_homology(args) -> int:
    obj = _load_json_arg(args.presentation)
    if isinstance(obj, dict):
        known_keys(obj, ("generators", "relations"), "presentation")
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError(
            'presentation must be a JSON object with "generators" and "relations"'
        )
    relations = obj.get("relations", [])
    if not isinstance(relations, list):
        raise ValueError(f"relations must be a JSON list of rows, got {relations!r}")
    inv = fp_abelian_invariants(obj["generators"], relations)
    payload = {
        "group": str(inv),
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
    }
    _emit(args, payload, str(inv))
    return 0


def _cmd_verify(args) -> int:
    # the battery and its generators load only for this verb
    from .battery import verify_paper

    summary = verify_paper(seed=args.seed, trials=args.trials)
    _emit(args, summary.to_json(), summary.to_text())
    return 0 if summary.all_passed else 2


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="knotbands",
        description="Band-form spanning surfaces and concordance obstructions.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    presets = ", ".join(preset_names())

    p_inv = sub.add_parser("invariants", help="classical invariants of a Seifert matrix")
    g = p_inv.add_mutually_exclusive_group(required=True)
    g.add_argument("--seifert", help="Seifert matrix as JSON (inline or a file path)")
    g.add_argument("--preset", help=f"named knot ({presets})")
    p_inv.add_argument("--samples", help="Levine-Tristram sample list as JSON")
    p_inv.set_defaults(func=_cmd_invariants)

    p_band = sub.add_parser("band", help="analyze a disk-band surface")
    g = p_band.add_mutually_exclusive_group(required=True)
    g.add_argument("--surface", help="band surface as JSON (inline or a file path)")
    g.add_argument("--preset", help=f"named knot ({presets})")
    p_band.add_argument(
        "--kind",
        choices=("orientable", "nonorientable"),
        default="nonorientable",
        help="which stored surface a preset supplies (default nonorientable)",
    )
    p_band.set_defaults(func=_cmd_band)

    p_cable = sub.add_parser("cable", help="(2,p) cable data on the twisted Möbius band")
    g = p_cable.add_mutually_exclusive_group(required=True)
    g.add_argument("--knot", help='knot record JSON: {"seifert": ..., "core_route": ...}')
    g.add_argument("--preset", help=f"named knot ({presets})")
    p_cable.add_argument("-p", type=int, required=True, help="odd cabling parameter")
    p_cable.set_defaults(func=_cmd_cable)

    p_klein = sub.add_parser(
        "klein", help="zero-framed punctured Klein bottle for a cable pair"
    )
    gk = p_klein.add_mutually_exclusive_group(required=True)
    gk.add_argument("--coreK", help="route of the K core as a JSON crossing list")
    gk.add_argument("--presetK", help=f"named knot for K ({presets})")
    gj = p_klein.add_mutually_exclusive_group(required=True)
    gj.add_argument("--coreJ", help="route of the J core as a JSON crossing list")
    gj.add_argument("--presetJ", help=f"named knot for J ({presets})")
    p_klein.add_argument("-p", type=int, required=True, help="odd cabling parameter")
    p_klein.set_defaults(func=_cmd_klein)

    p_ob = sub.add_parser(
        "obstruct-cable", help="screen (2,p) cables of K and J for concordance"
    )
    gk = p_ob.add_mutually_exclusive_group(required=True)
    gk.add_argument("--K", help="knot record JSON for K")
    gk.add_argument("--presetK", help=f"named knot for K ({presets})")
    gj = p_ob.add_mutually_exclusive_group(required=True)
    gj.add_argument("--J", help="knot record JSON for J")
    gj.add_argument("--presetJ", help=f"named knot for J ({presets})")
    p_ob.add_argument("-p", type=int, required=True, help="odd cabling parameter")
    p_ob.add_argument("--samples", help="signature sample list as JSON")
    p_ob.set_defaults(func=_cmd_obstruct_cable)

    p_hom = sub.add_parser("homology", help="abelian invariants of a presented group")
    p_hom.add_argument(
        "--presentation",
        required=True,
        help='JSON object {"generators": n, "relations": [[...], ...]}',
    )
    p_hom.set_defaults(func=_cmd_homology)

    p_ver = sub.add_parser("verify", help="run the randomized verification battery")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


EXIT_BROKEN_PIPE = 141


def _drop_stdout() -> None:
    """Point stdout at the null device, so the interpreter's final flush of
    output nobody reads raises no second BrokenPipeError."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor; nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, our errors exit 1
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        print("knotbands: error: a command is required", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        # flush here, so that a closed pipe raises below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
