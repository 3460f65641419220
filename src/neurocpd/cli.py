"""Command-line benchmark driver.

Subcommands::

    neurocpd gen --kind difficult9 --seed 0 --out tensor.txt
    neurocpd run --config run.yaml [--set key=value ...]   (one algorithm)
    neurocpd compare --config configs/difficult9_flow_vs_baselines.yaml --seeds 0..9

Exit codes: 0 success, 1 configuration error, 2 solver failure in all
seeds of a run.

Where the C library has glibc's ``mallopt``, :func:`main` first raises its
trim threshold to 64 MiB and its mmap threshold to 32 MiB, so that the
tensor-sized buffers a solve frees and takes again on every step stay mapped
instead of being returned to the system and faulted back in.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from . import bench
from .datagen import gen_problem, problem_metadata
from .errors import ConfigError, NeurocpdError
from .tensor_io import save_tensor, write_metadata


#: the glibc ``mallopt`` settings :func:`main` makes: M_TRIM_THRESHOLD (-1 in
#: malloc.h) at 64 MiB and M_MMAP_THRESHOLD (-3) at 32 MiB
_ALLOCATOR_SETTINGS = ((-1, 64 << 20), (-3, 32 << 20))


def _libc():
    """The C library the process runs on, as ``ctypes`` loads it."""
    return ctypes.CDLL(None)


def _tune_allocator() -> None:
    """Set :data:`_ALLOCATOR_SETTINGS` through ``mallopt``; nothing where the
    C library has none (not glibc) or cannot be loaded."""
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _ALLOCATOR_SETTINGS:
        mallopt(param, value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config/usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _build_parser() -> _Parser:
    parser = _Parser(prog="neurocpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic tensor file")
    gen.add_argument("--kind", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--noise-snr", type=float, default=None,
                     help="additive nonnegative noise at this SNR (dB)")

    run = sub.add_parser("run", help="run one algorithm config over its seeds")
    run.add_argument("--config", required=True)
    run.add_argument("--set", action="append", default=[], dest="sets",
                     metavar="KEY=VALUE")

    cmp_ = sub.add_parser("compare", help="run several algorithm variants")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--seeds", default=None, help="range a..b or list a,b,c")
    cmp_.add_argument("--set", action="append", default=[], dest="sets",
                      metavar="KEY=VALUE")
    return parser


def _cmd_gen(args) -> int:
    tensor, _ = gen_problem(args.kind, args.seed, args.noise_snr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tensor(out, tensor)
    write_metadata(str(out) + ".meta",
                   problem_metadata(args.kind, args.seed, args.noise_snr))
    print(f"wrote {out} ({'x'.join(str(d) for d in tensor.shape)}) and {out}.meta")
    return 0


def _cmd_run(args) -> int:
    raw = bench.apply_overrides(bench.load_config(args.config), args.sets)
    if "algorithms" in raw:
        raise ConfigError(
            f"{args.config} defines an 'algorithms' list; use the compare subcommand"
        )
    cfg = bench.RunConfig.from_dict(raw)
    records = bench.run(cfg)
    out = cfg.resolved_output_dir()
    for record in records:
        print(
            f"{cfg.label} seed {record.seed}: rel_error {record.final_rel_error:.4e} "
            f"({record.termination})"
        )
    print(f"traces written to {out}")
    if all(r.failed for r in records):
        return 2
    return 0


def _compare_configs(raw: dict) -> list[bench.RunConfig]:
    variants = raw.pop("algorithms", None)
    if not isinstance(variants, list) or not variants:
        raise ConfigError(f"'algorithms' must be a non-empty list, got {variants!r}")
    if bad := [v for v in variants if not isinstance(v, dict)]:
        raise ConfigError(f"each 'algorithms' entry must be a mapping, got {bad[0]!r}")
    return [bench.RunConfig.from_dict({**raw, **variant}) for variant in variants]


def _cmd_compare(args) -> int:
    raw = bench.apply_overrides(bench.load_config(args.config), args.sets)
    seeds = None if args.seeds is None else _parse_seeds(args.seeds)
    cfgs = _compare_configs(raw)
    rows = bench.compare(cfgs, seeds)
    out = cfgs[0].resolved_output_dir()
    bench.write_compare_csv(rows, out / "compare.csv")
    print(bench.compare_table(rows))
    print(f"summary written to {out / 'compare.csv'}")
    if rows and all(r.completed == 0 for r in rows):
        return 2
    return 0


def main(argv=None) -> int:
    _tune_allocator()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NeurocpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
