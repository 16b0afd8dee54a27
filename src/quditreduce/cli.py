"""Command-line front end.

Subcommands: ``random`` (seeded state generation), ``reduce`` (staged
elimination with trace and report output), ``verify`` (unitarity, norm
and round-trip check of a recorded trace), ``schmidt`` (bipartite
cross-check against the spectral oracle).

Exit codes are a stable scripting contract: 0 success, 1 invalid input
or arguments or an unwritable output, 2 non-convergence or oracle
failure, 3 verification, cross-check or internal consistency failure.
Commands raise their failures; ``_run`` alone turns them into exit codes,
for each command and for each file of ``reduce``, which takes the same
path for a file of ``--batch`` as for ``--input``. ``random`` and
``reduce`` refuse a destination that is a directory, then write each
output to its ``.part`` temp and move them into place only when every
write succeeded, so a failure leaves what was there before. ``reduce``
exits 1, before reading its input, unless the input, the three outputs
and their ``.part`` temps are seven distinct files.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    InternalConsistencyError,
    NonConvergenceError,
    OracleFailureError,
)
from .fileio import (
    file_digest,
    load_state,
    load_trace,
    read_state_file,
    report_to_dict,
    save_report,
    save_state,
    save_trace,
)
from .reduction import (DEFAULT_EPSILON, DEFAULT_MAX_ITERS, STRATEGIES,
                        check_stages, invert_rotations, reduce)
from .spectral import schmidt_coefficients
from .state import (check_normalized, check_unitary, index_encode,
                    random_state)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

#: Round-trip 2-norm error below which ``verify`` passes; also the most
#: a trace's original_norm may differ from the original's norm.
VERIFY_TOL = 1e-9
#: Oracle-vs-reduction coefficient difference below which ``schmidt`` passes.
SCHMIDT_TOL = 1e-8
#: The strategy of ``reduce`` without --strategy, and of ``schmidt``.
#: Library ``reduce`` keeps greedy, whose step the acceptance criteria
#: describe.
DEFAULT_STRATEGY = "newton"

#: The outputs of ``reduce`` in write order: flag -> kind, where the kind
#: names the default ``<input>.<kind>.json`` and the files --batch skips.
_OUTPUTS = {"output": "reduced", "trace": "trace", "report": "report"}


def _fail(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _run(command, *args) -> int:
    """Return ``command(*args)``, or the exit code of the failure it raised.

    The one table from failures to exit codes; the failure is reported on
    stderr as raised, so whatever raises it names the file it concerns.
    Any other error is a bug and propagates.
    """
    try:
        return command(*args)
    except (OSError, ValueError) as exc:  # ValueError includes CapacityError
        code, error = EXIT_INVALID, exc
    except (NonConvergenceError, OracleFailureError) as exc:
        code, error = EXIT_NO_CONVERGENCE, exc
    except InternalConsistencyError as exc:
        code, error = EXIT_VERIFY_FAILED, exc
    _fail(error)
    return code


def _part(path: Path) -> Path:
    """The sibling temp an output is written to before it moves into place."""
    return path.with_name(path.name + ".part")


def _write_outputs(writes) -> None:
    """For each ``(path, write)``, call ``write(temp)`` on the path's
    ``.part`` temp, then move every temp into place. A destination that
    is a directory is refused first, leaving every output as it was.
    After an OSError, remove the temps and the outputs moved so far and
    re-raise, so a failure leaves none of the new outputs behind."""
    for path, _ in writes:
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
    temps = [_part(path) for path, _ in writes]
    placed = []
    try:
        for temp, (_, write) in zip(temps, writes):
            write(temp)
        for temp, (path, _) in zip(temps, writes):
            temp.replace(path)
            placed.append(path)
    except OSError:
        for path in temps + placed:
            if path.is_file():
                path.unlink()
        raise


def cmd_random(args) -> int:
    state = random_state(args.n, args.l, args.seed)
    _write_outputs([(Path(args.output),
                     lambda temp: save_state(temp, state, seed=args.seed))])
    print(f"wrote {args.output}: n={args.n} l={args.l} seed={args.seed}")
    return EXIT_OK


def _reduce_single(input_path: Path, args) -> int:
    """Reduce one state file and write its three outputs, each at its
    flag's path or else at ``<input>.<kind>.json``.

    Returns 0 on success and 2 for non-convergence, whose outputs are
    still written. Every other failure raises, leaving no outputs, and
    ``_run`` maps it: 1 for an unreadable input or an unwritable output,
    3 for an internal consistency failure.
    """
    stem = input_path.name.removesuffix(".json")
    outputs = [Path(getattr(args, flag)
                    or input_path.with_name(f"{stem}.{kind}.json"))
               for flag, kind in _OUTPUTS.items()]
    # The .part temps are names --batch never takes as an input.
    paths = (input_path, *outputs, *map(_part, outputs))
    if len({p.resolve() for p in paths}) < len(paths):
        raise ValueError(f"{input_path}: the input, the three outputs and "
                         f"their .part temps must be seven distinct files")
    started = time.perf_counter()
    state, renormalized, seed = load_state(input_path)
    digest = file_digest(input_path)
    code = EXIT_OK
    try:
        trace, report = reduce(state, strategy=args.strategy,
                               epsilon=args.eps,
                               max_iters_per_stage=args.max_iters,
                               support_threshold=args.threshold)
    except NonConvergenceError as exc:
        # Partial outputs are still written, flagged in the report.
        trace, report = exc.trace, exc.report
        code = EXIT_NO_CONVERGENCE
        _fail(f"{input_path}: {exc}")
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"{input_path}: {exc}") from exc

    duration = time.perf_counter() - started
    doc = report_to_dict(
        report, tool_version=__version__, input_digest=digest, seed=seed,
        duration_seconds=duration, input_renormalized=renormalized)
    writes = (lambda temp: save_state(temp, trace.final_state),
              lambda temp: save_trace(temp, trace),
              lambda temp: save_report(temp, doc))
    try:
        _write_outputs(list(zip(outputs, writes)))
    except OSError as exc:
        raise OSError(f"{input_path}: cannot write outputs: {exc}") from exc
    print(f"{input_path}: converged={report.converged} "
          f"support {report.support_before} -> {report.support_after} "
          f"(bound {report.bound}), {len(trace.rotations)} rotations")
    return code


def cmd_reduce(args) -> int:
    if args.batch:
        given = [f"--{flag}" for flag in ("input", *_OUTPUTS)
                 if getattr(args, flag)]
        if given:
            raise ValueError(f"--batch cannot be combined with {', '.join(given)}")
        directory = Path(args.batch)
        if not directory.is_dir():
            raise ValueError(f"{directory} is not a directory")
        suffixes = tuple(f".{kind}.json" for kind in _OUTPUTS.values())
        inputs = sorted(p for p in directory.glob("*.json")
                        if not p.name.endswith(suffixes))
        if not inputs:
            raise ValueError(f"no state files found in {directory}")
    elif args.input:
        inputs = [Path(args.input)]
    else:
        raise ValueError("reduce needs --input or --batch")
    # Runs are independent; processed sequentially here.
    return max(_run(_reduce_single, path, args) for path in inputs)


def cmd_verify(args) -> int:
    original, _, _ = load_state(args.original)
    n1, l1, reduced, _ = read_state_file(args.reduced)
    nt, lt, original_norm, records = load_trace(args.trace)
    if not (original.n == n1 == nt and original.l == l1 == lt):
        raise ValueError(f"shape mismatch: original ({original.n},{original.l}), "
                         f"reduced ({n1},{l1}), trace ({nt},{lt})")
    # The inversion folds the whole trace into one unitary per site, which
    # hides a bad rotation, so each rotation's stage and unitarity and the
    # reduced norm are checked on their own first.
    try:
        if not abs(original_norm - original.norm) <= VERIFY_TOL:
            raise ValueError(f"trace original_norm {original_norm!r} differs "
                             f"from the original's norm {original.norm!r} "
                             f"by more than {VERIFY_TOL}")
        check_stages(records)
        check_unitary(records["entries"])
        check_normalized(reduced, "reduced state")
    except ValueError as exc:
        print(f"verification FAILED: {exc}")
        return EXIT_VERIFY_FAILED
    reconstructed = invert_rotations(reduced, n1, l1, records)
    # Not np.linalg.norm: slow on large complex vectors under threaded BLAS.
    deviation = math.sqrt(np.sum(np.abs(reconstructed - original.amplitudes) ** 2))
    print(f"round-trip 2-norm error: {deviation:.6e}")
    if deviation < VERIFY_TOL:
        print("verification passed")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_VERIFY_FAILED


def cmd_schmidt(args) -> int:
    state, _, _ = load_state(args.input)
    if state.l != 2:
        raise ValueError(f"schmidt cross-check needs a bipartite state (l = 2), "
                         f"got l = {state.l}")
    oracle = schmidt_coefficients(state)
    trace, _ = reduce(state, strategy=DEFAULT_STRATEGY)
    diag = np.abs(trace.final_state.amplitudes[
        [index_encode((i, i), state.n) for i in range(state.n)]])
    diag = np.sort(diag)[::-1]
    coeffs = oracle.schmidt_coefficients
    difference = float(np.max(np.abs(diag - coeffs)))
    print("reduction diagonal:", " ".join(repr(float(v)) for v in diag))
    print("schmidt oracle:    ", " ".join(repr(float(v)) for v in coeffs))
    print(f"max difference: {difference:.6e}")
    return EXIT_OK if difference < SCHMIDT_TOL else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1, as the code contract promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(message)
        raise SystemExit(EXIT_INVALID)


def _checked(convert, ok, requirement):
    """argparse type: ``convert`` the text and require ``ok`` of the value."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditreduce",
        description="Reduce multipartite pure states to few product-basis "
                    "terms with recorded local plane rotations.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random", help="write a seeded random state file")
    p.add_argument("--n", type=int, required=True, help="levels per site (>= 2)")
    p.add_argument("--l", type=int, required=True, help="number of sites (>= 1)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--output", required=True, help="state file to write")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("reduce", help="run the staged elimination on a state file")
    p.add_argument("--input", help="state file to reduce")
    p.add_argument("--batch", metavar="DIR",
                   help="reduce every state file in DIR; excludes --input, "
                        "--output, --trace and --report")
    p.add_argument("--output", help="reduced state file (default: <input>.reduced.json)")
    p.add_argument("--trace", help="rotation trace file (default: <input>.trace.json)")
    p.add_argument("--report", help="report file (default: <input>.report.json)")
    p.add_argument("--eps", default=DEFAULT_EPSILON,
                   type=_checked(float, lambda v: 0 < v < math.inf,
                                 "a finite number > 0"),
                   help="convergence threshold on target magnitudes")
    p.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p.add_argument("--max-iters", default=DEFAULT_MAX_ITERS,
                   type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                   help="elimination cap per stage")
    p.add_argument("--threshold", default=None,
                   type=_checked(float, lambda v: 0 <= v < math.inf,
                                 "a finite number >= 0"),
                   help="support-count threshold (default 10*eps)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify",
                       help="check that a trace maps the reduced state back to the original")
    p.add_argument("--original", required=True, help="original state file")
    p.add_argument("--trace", required=True, help="trace file from reduce")
    p.add_argument("--reduced", required=True, help="reduced state file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schmidt",
                       help="cross-check a bipartite reduction against the spectral oracle")
    p.add_argument("--input", required=True, help="bipartite state file")
    p.set_defaults(func=cmd_schmidt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
