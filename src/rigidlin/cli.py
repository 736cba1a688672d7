"""Command-line front end.

Subcommands: ``verify <suite>``, ``kernel``, ``snf``, ``witness`` and
``eval-word``.  Matrices use the ``1,0;0,1`` text format, generator words
the ``e(i,j,r);rl(i,a);rs(i,j,a)`` token grammar, rings the descriptors
``Z``, ``Z/6``, ``Fp[x]/5``, ``Z[x]``, ``Zi``.

Exit codes: 0 when the requested check passes, 1 when a suite reports a
failure or a verified identity fails, 2 on usage errors (bad literals,
unsupported rings, unknown suites, parameters a suite does not take,
that are out of range, that are given twice or that the ring's branch of
the suite ignores, enumerations above their cap, ``--seed`` outside
``verify``, ``--count`` below 1, ``witness --group en`` below size 2,
``witness`` and ``eval-word`` matrices above ``MATRIX_SIZE_CAP``, an
``--out`` path that cannot be written).  ``--group`` takes a word
kind of ``groups.WORD_KINDS``, which also names the form that
``witness`` and ``eval-word`` use for it.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .errors import IdentityViolation, ParseError, UnsupportedRingError
from .groups import WORD_KINDS, form_matrix, format_word, parse_word, preserves_form
from .matrix import Matrix, format_matrix, format_vector, parse_matrix
from .normal_forms import smith_normal_form, kernel_basis, solution_stream
from .rings import ring_from_text
from .suites import MATRIX_SIZE_CAP, SUITE_IDS, run_suite
from .witnesses import (
    StabilizerContext,
    block_unipotent_witnesses,
    intersection_witnesses,
)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--ring", default="Z", help="ring descriptor (default: Z)")
    sub.add_argument("--json", action="store_true", help="emit JSON on stdout")
    sub.add_argument("--out", metavar="PATH", help="also write the JSON payload to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidlin",
        description="exact matrix algebra over rings with verified witnesses",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_IDS)
    verify.add_argument("--n", type=int, help="size parameter, where the suite takes one")
    verify.add_argument("--trials", type=int, help="trial count override")
    verify.add_argument("--count", type=int, help="witness count override (need)")
    verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override with a JSON value, e.g. trials=5 or ns=[2,4] (repeatable)",
    )
    verify.add_argument("--seed", type=int, help="seed for randomized suites")
    _add_common(verify)

    kernel = commands.add_parser("kernel", help="kernel basis and solution stream")
    kernel.add_argument("--matrix", required=True, help="matrix text, e.g. '2,3'")
    kernel.add_argument("--count", type=int, default=5, help="streamed solutions (default 5)")
    _add_common(kernel)

    snf = commands.add_parser("snf", help="Smith normal form with transforms")
    snf.add_argument("--matrix", required=True)
    _add_common(snf)

    witness = commands.add_parser("witness", help="verified stabilizer-intersection witnesses")
    witness.add_argument("--group", choices=WORD_KINDS, default="en")
    witness.add_argument("--n", type=int, required=True,
                         help="matrix size for en, half-rank for esp/eo")
    witness.add_argument(
        "--conjugators",
        action="append",
        default=[],
        help="generator word; repeatable, or several words joined with '|'",
    )
    witness.add_argument("--count", type=int, default=5)
    _add_common(witness)

    evalw = commands.add_parser("eval-word", help="evaluate a generator word")
    evalw.add_argument("--group", choices=WORD_KINDS, default="en")
    evalw.add_argument("--n", type=int, required=True)
    evalw.add_argument("--word", required=True)
    _add_common(evalw)

    return parser


def _check_out(path: str) -> None:
    """Refuse, before any work, an --out path that is a directory or whose
    directory is missing; _emit refuses what shows only at write time."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write --out {path}: {os.strerror(code)}")


def _emit(args, payload: dict, human: str | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    if args.json or human is None:
        print(text)
    else:
        print(human)


def _cmd_verify(args) -> int:
    ring = ring_from_text(args.ring)
    flags = {"seed": args.seed, "n": args.n, "trials": args.trials, "need": args.count}
    given = [(key, value) for key, value in flags.items() if value is not None]
    for item in args.param:
        key, _, value = item.partition("=")
        if not key or not value:
            raise ParseError(f"bad --param {item!r}, expected KEY=VALUE")
        try:
            given.append((key, json.loads(value)))
        except json.JSONDecodeError:
            raise ParseError(f"bad --param {item!r}, the value is not a JSON literal") from None
    params: dict = {}
    for key, value in given:
        if key in params:
            raise ParseError(f"parameter {key} is given twice")
        params[key] = value
    report = run_suite(args.suite, ring, params)
    human = (
        f"suite {report.suite} over {report.ring}: {report.verdict} "
        f"({report.trials} trials, {len(report.failures)} failures, "
        f"{report.elapsed_ms:.0f} ms)"
    )
    _emit(args, report.to_dict(), human)
    return 0 if report.verdict == "pass" else 1


def _check_count(args) -> None:
    if args.count < 1:
        raise ValueError("--count must be at least 1")


def _check_size(args) -> None:
    size = 2 * args.n if WORD_KINDS[args.group][0] else args.n
    if size > MATRIX_SIZE_CAP:
        raise ValueError(f"--n {args.n} builds {size}x{size} matrices; the cap is {MATRIX_SIZE_CAP}")


def _cmd_kernel(args) -> int:
    _check_count(args)
    ring = ring_from_text(args.ring)
    matrix = parse_matrix(ring, args.matrix)
    kernel = kernel_basis(matrix)
    sample = list(solution_stream(matrix, args.count))
    payload = {
        "ring": ring.descriptor,
        "matrix": format_matrix(matrix),
        "basis": [format_vector(ring, v) for v in kernel.basis],
        "stream_sample": [format_vector(ring, v) for v in sample],
    }
    _emit(args, payload)
    return 0


def _cmd_snf(args) -> int:
    ring = ring_from_text(args.ring)
    matrix = parse_matrix(ring, args.matrix)
    d, u, v = smith_normal_form(matrix)
    payload = {
        "ring": ring.descriptor,
        "matrix": format_matrix(matrix),
        "d": format_matrix(d),
        "u": format_matrix(u),
        "v": format_matrix(v),
    }
    _emit(args, payload)
    return 0


def _cmd_witness(args) -> int:
    _check_count(args)
    _check_size(args)
    ring = ring_from_text(args.ring)
    word_texts = [w for chunk in args.conjugators for w in chunk.split("|") if w.strip()]
    words = [parse_word(ring, args.group, args.n, text) for text in word_texts]
    if args.group == "en":
        ctx = StabilizerContext(ring, args.n, tuple(w.evaluate() for w in words))
        found = list(intersection_witnesses(ctx, args.count))
        u_vectors = ctx.projected_images
    else:
        if len(words) > 1:
            raise ParseError("esp/eo witnesses take at most one conjugator word (the element g)")
        form = form_matrix(ring, args.n, WORD_KINDS[args.group][0])
        g = words[0].evaluate() if words else Matrix.identity(ring, 2 * args.n)
        found = list(block_unipotent_witnesses(form, g, args.count))
        u_vectors = [g.column(0)] if words else []
    payload = {
        "ring": ring.descriptor,
        "group": args.group,
        "n": args.n,
        "conjugators": [format_word(w) for w in words],
        "u_vectors": [format_vector(ring, u) for u in u_vectors],
        "witnesses": [format_matrix(w.matrix) for w in found],
    }
    _emit(args, payload)
    return 0


def _cmd_eval_word(args) -> int:
    _check_size(args)
    ring = ring_from_text(args.ring)
    word = parse_word(ring, args.group, args.n, args.word)
    matrix = word.evaluate()
    payload = {
        "ring": ring.descriptor,
        "group": args.group,
        "n": args.n,
        "word": format_word(word),
        "matrix": format_matrix(matrix),
        "det": ring.format(matrix.det()),
    }
    kind = WORD_KINDS[args.group][0]
    if kind:
        payload["preserves_form"] = preserves_form(matrix, form_matrix(ring, args.n, kind))
    _emit(args, payload, format_matrix(matrix))
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "kernel": _cmd_kernel,
    "snf": _cmd_snf,
    "witness": _cmd_witness,
    "eval-word": _cmd_eval_word,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except (ParseError, UnsupportedRingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"error: identity violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
