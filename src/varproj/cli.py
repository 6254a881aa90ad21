"""Command line front end.

JSON in, JSON out.  Dense vectors are arrays of numbers; sparse vectors
are arrays of ``[index, value]`` pairs with strictly increasing 1-based
indices and nonzero values.  Exit codes: 0 on success, 1 when a verify
suite reports failures or stdout is closed early, 2 on malformed input.

The three sets share their operation names: ``BallProjection(radius)``,
the ``orthant`` module and the ``l2_cone`` module each give ``project``,
and ``gateaux``, ``frechet`` and ``coderivative`` where the set has them.
Every command calls the operation of its name on the set chosen by
``--set``, and exits 2 when that set has none, or when a set flag is
given that the command does not read (``--radius`` off the ball,
``--dim`` for cone-l2, ``--support`` outside ``coderiv --set cone-l2``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import l2_cone, orthant
from .ball import BallProjection
from .oracle import ProbeConfig, membership
from .suites import SUITE_NAMES, run_suite
from .vectors import dense_from_wire, encode_vector, sparse_from_wire

SETS = ("ball", "cone-rn", "cone-l2")


class InputError(ValueError):
    pass


def _parse_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag}: invalid JSON ({exc.msg})") from exc


def _support(text: str) -> frozenset[int]:
    raw = _parse_json(text, "--support")
    if not isinstance(raw, list):
        raise InputError("--support: expected a JSON array of indices")
    try:
        return l2_cone.as_support(raw)
    except (ValueError, TypeError) as exc:
        raise InputError(f"--support: {exc}") from exc


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name.strip("-").replace("-", "_"), None) is None:
            raise InputError(f"{name} is required for --set {args.set}")


def _read(args: argparse.Namespace, flag: str, dim: Optional[int] = None):
    """The vector of ``flag``: sparse for cone-l2, dense of dimension ``dim`` or --dim otherwise."""
    raw = _parse_json(getattr(args, flag.strip("-")), flag)
    try:
        if args.set == "cone-l2":
            return sparse_from_wire(raw)
        vec = dense_from_wire(raw)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{flag}: {exc}") from exc
    dim = args.dim if dim is None else dim
    if dim is not None and vec.shape[0] != dim:
        raise InputError(f"{flag}: expected dimension {dim}, got {vec.shape[0]}")
    return vec


def _reject_unused(args: argparse.Namespace) -> None:
    """Refuse the set flags the command ignores: --radius off the ball, --dim for
    cone-l2, --support outside ``coderiv --set cone-l2``."""
    unused = {"radius": args.set != "ball", "dim": args.set == "cone-l2",
              "support": (args.command, args.set) != ("coderiv", "cone-l2")}
    for name, ignored in unused.items():
        if ignored and getattr(args, name) is not None:
            raise InputError(f"--{name} is not used by {args.command} --set {args.set}")


def _operation(args: argparse.Namespace, name: str, *flags: str) -> tuple:
    """The operation ``name`` of the set chosen by --set, then the vectors of ``flags``."""
    _reject_unused(args)
    _require(args, *flags)
    if args.set == "ball":
        _require(args, "--radius")
        try:
            ops = BallProjection(args.radius)
        except ValueError as exc:
            raise InputError(f"--radius: {exc}") from exc
    else:
        ops = orthant if args.set == "cone-rn" else l2_cone
    op = getattr(ops, name, None)
    if op is None:
        raise InputError(f"{name} is not available for --set {args.set}")
    return (op, *(_read(args, flag) for flag in flags))


def _seed(args: argparse.Namespace) -> int:
    flag, raw = ("--seed", args.seed) if args.seed is not None else ("VARPROJ_SEED", os.environ.get("VARPROJ_SEED", "0"))
    try:
        seed = int(raw)
    except ValueError as exc:
        raise InputError(f"{flag}: not an integer ({raw!r})") from exc
    if seed < 0:
        raise InputError(f"{flag}: must be nonnegative, got {seed}")
    return seed


def _cmd_project(args: argparse.Namespace) -> tuple[dict, int]:
    project, point = _operation(args, "project", "--point")
    return {"set": args.set, "projection": encode_vector(project(point))}, 0


def _cmd_gateaux(args: argparse.Namespace) -> tuple[dict, int]:
    gateaux, xbar, w = _operation(args, "gateaux", "--xbar", "--w")
    return {"set": args.set, "derivative": encode_vector(gateaux(xbar, w))}, 0


def _cmd_frechet(args: argparse.Namespace) -> tuple[dict, int]:
    frechet, xbar = _operation(args, "frechet", "--xbar")
    mapping = frechet(xbar)
    out: dict = {"set": args.set, "differentiable": mapping is not None}
    if mapping is None:
        out["map"] = None
    else:
        out["map"] = mapping.to_json()
        if args.w is not None:
            out["applied"] = encode_vector(mapping(_read(args, "--w", xbar.shape[0])))
    return out, 0


def _cmd_coderiv(args: argparse.Namespace) -> tuple[dict, int]:
    coderivative, xbar, y = _operation(args, "coderivative", "--xbar", "--y")
    if args.set == "cone-l2":
        _require(args, "--support")
        desc = coderivative(xbar, _support(args.support), y)
    else:
        desc = coderivative(xbar, y)
    out = {"set": args.set, "descriptor": desc.to_json()}
    if args.z is not None:
        answer = desc.contains(_read(args, "--z"))
        out["contains"] = "unknown" if answer is None else answer
    return out, 0


def _cmd_oracle_member(args: argparse.Namespace) -> tuple[dict, int]:
    # the set's own project, from which membership finds its row form
    project, xbar, y, z = _operation(args, "project", "--xbar", "--y", "--z")
    config = ProbeConfig(seed=_seed(args), tolerance=args.tolerance)
    out = membership(project, xbar, y, z, config).to_json()
    out["set"] = args.set
    return out, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    report = run_suite(args.suite, _seed(args))
    return report.to_json(), 0 if report.all_ok else 1


_DISPATCH = {
    "project": _cmd_project,
    "gateaux": _cmd_gateaux,
    "frechet": _cmd_frechet,
    "coderiv": _cmd_coderiv,
    "oracle-member": _cmd_oracle_member,
    "verify": _cmd_verify,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--set", required=True, choices=SETS, help="constraint set")
    sub.add_argument("--radius", type=float, help="ball radius (ball only)")
    sub.add_argument("--dim", type=int, help="expected dimension of dense vectors")
    sub.add_argument("--support", help="JSON array of 1-based indices (cone-l2 only)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varproj",
        description="Projections onto balls and positive cones, their derivatives, "
        "coderivative descriptors, and a numerical membership check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a point onto the set")
    _add_common(p)
    p.add_argument("--point", help="JSON vector to project")

    p = sub.add_parser("gateaux", help="one-sided directional derivative of the projection")
    _add_common(p)
    p.add_argument("--xbar", help="JSON base point")
    p.add_argument("--w", help="JSON direction")

    p = sub.add_parser("frechet", help="derivative map of the projection, when it exists")
    _add_common(p)
    p.add_argument("--xbar", help="JSON base point")
    p.add_argument("--w", help="optional JSON vector to apply the map to")

    p = sub.add_parser("coderiv", help="coderivative descriptor at (xbar, y)")
    _add_common(p)
    p.add_argument("--xbar", help="JSON base point")
    p.add_argument("--y", help="JSON target direction")
    p.add_argument("--z", help="optional JSON candidate; adds a membership answer")

    p = sub.add_parser("oracle-member", help="numerical membership estimate for z")
    _add_common(p)
    p.add_argument("--xbar", help="JSON base point")
    p.add_argument("--y", help="JSON target direction")
    p.add_argument("--z", help="JSON candidate vector")
    p.add_argument("--seed", type=int, help="probe RNG seed (default: VARPROJ_SEED or 0)")
    p.add_argument("--tolerance", type=float, default=1e-3, help="verdict tolerance")

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p.add_argument("--seed", type=int, help="suite RNG seed (default: VARPROJ_SEED or 0)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        out, code = _DISPATCH[args.command](args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(out, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does); send the rest to
        # devnull so the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
