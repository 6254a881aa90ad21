"""Command line front end.

JSON in, JSON out.  Dense vectors are arrays of numbers; sparse vectors
are arrays of ``[index, value]`` pairs with strictly increasing 1-based
indices and nonzero values.  Exit codes: 0 on success, 1 when a verify
suite reports failures or stdout is closed early, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import l2_cone, orthant
from .ball import BallProjection
from .oracle import ProbeConfig, membership
from .suites import SUITE_NAMES, run_suite
from .vectors import SparseVector, dense_from_wire, encode_vector, sparse_from_wire

SETS = ("ball", "cone-rn", "cone-l2")


class InputError(ValueError):
    pass


def _parse_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag}: invalid JSON ({exc.msg})") from exc


def _dense(text: str, flag: str, dim: Optional[int]) -> np.ndarray:
    try:
        vec = dense_from_wire(_parse_json(text, flag))
    except (ValueError, TypeError) as exc:
        raise InputError(f"{flag}: {exc}") from exc
    if dim is not None and vec.shape[0] != dim:
        raise InputError(f"{flag}: expected dimension {dim}, got {vec.shape[0]}")
    return vec


def _sparse(text: str, flag: str) -> SparseVector:
    try:
        return sparse_from_wire(_parse_json(text, flag))
    except (ValueError, TypeError) as exc:
        raise InputError(f"{flag}: {exc}") from exc


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


def _ball(args: argparse.Namespace) -> BallProjection:
    _require(args, "--radius")
    try:
        return BallProjection(args.radius)
    except ValueError as exc:
        raise InputError(f"--radius: {exc}") from exc


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("VARPROJ_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"VARPROJ_SEED: not an integer ({raw!r})") from exc


def _cmd_project(args: argparse.Namespace) -> tuple[dict, int]:
    _require(args, "--point")
    if args.set == "ball":
        op = _ball(args)
        out = op.project(_dense(args.point, "--point", args.dim))
    elif args.set == "cone-rn":
        out = orthant.project(_dense(args.point, "--point", args.dim))
    else:
        out = l2_cone.project(_sparse(args.point, "--point"))
    return {"set": args.set, "projection": encode_vector(out)}, 0


def _cmd_gateaux(args: argparse.Namespace) -> tuple[dict, int]:
    _require(args, "--xbar", "--w")
    if args.set == "ball":
        op = _ball(args)
        xbar = _dense(args.xbar, "--xbar", args.dim)
        w = _dense(args.w, "--w", args.dim)
        try:
            value = op.gateaux(xbar, w)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    elif args.set == "cone-rn":
        xbar = _dense(args.xbar, "--xbar", args.dim)
        w = _dense(args.w, "--w", args.dim)
        value = orthant.gateaux(xbar, w)
    else:
        raise InputError("gateaux is not available for --set cone-l2")
    return {"set": args.set, "derivative": encode_vector(value)}, 0


def _cmd_frechet(args: argparse.Namespace) -> tuple[dict, int]:
    _require(args, "--xbar")
    xbar = _dense(args.xbar, "--xbar", args.dim)
    if args.set == "ball":
        mapping = _ball(args).frechet(xbar)
    elif args.set == "cone-rn":
        mapping = orthant.frechet(xbar)
    else:
        raise InputError("frechet is not available for --set cone-l2")
    out: dict = {"set": args.set, "differentiable": mapping is not None}
    if mapping is None:
        out["map"] = None
    else:
        out["map"] = mapping.to_json()
        if args.w is not None:
            out["applied"] = encode_vector(mapping(_dense(args.w, "--w", args.dim)))
    return out, 0


def _cmd_coderiv(args: argparse.Namespace) -> tuple[dict, int]:
    _require(args, "--xbar", "--y")
    z = None
    if args.set == "ball":
        op = _ball(args)
        xbar = _dense(args.xbar, "--xbar", args.dim)
        y = _dense(args.y, "--y", args.dim)
        desc = op.coderivative(xbar, y)
        if args.z is not None:
            z = _dense(args.z, "--z", args.dim)
    elif args.set == "cone-rn":
        xbar = _dense(args.xbar, "--xbar", args.dim)
        y = _dense(args.y, "--y", args.dim)
        desc = orthant.coderivative(xbar, y)
        if args.z is not None:
            z = _dense(args.z, "--z", args.dim)
    else:
        _require(args, "--support")
        support = _support(args.support)
        xbar = _sparse(args.xbar, "--xbar")
        y = _sparse(args.y, "--y")
        try:
            desc = l2_cone.coderivative(xbar, support, y)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if args.z is not None:
            z = _sparse(args.z, "--z")
    out = {"set": args.set, "descriptor": desc.to_json()}
    if args.z is not None:
        answer = desc.contains(z)
        out["contains"] = "unknown" if answer is None else answer
    return out, 0


def _cmd_oracle_member(args: argparse.Namespace) -> tuple[dict, int]:
    _require(args, "--xbar", "--y", "--z")
    if args.set == "ball":
        op = _ball(args)
        f = op.project
        xbar = _dense(args.xbar, "--xbar", args.dim)
        y = _dense(args.y, "--y", args.dim)
        z = _dense(args.z, "--z", args.dim)
    elif args.set == "cone-rn":
        f = orthant.project
        xbar = _dense(args.xbar, "--xbar", args.dim)
        y = _dense(args.y, "--y", args.dim)
        z = _dense(args.z, "--z", args.dim)
    else:
        f = l2_cone.project
        xbar = _sparse(args.xbar, "--xbar")
        y = _sparse(args.y, "--y")
        z = _sparse(args.z, "--z")
    try:
        config = ProbeConfig(seed=_seed(args), tolerance=args.tolerance)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = membership(f, xbar, y, z, config)
    out = result.to_json()
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


def _add_common(sub: argparse.ArgumentParser, *, with_set: bool = True) -> None:
    if with_set:
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
        # the library rescues norms whose squares overflow; the plain
        # attempt's overflow warning would only be noise on stderr
        with np.errstate(over="ignore"):
            out, code = _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
