"""Command-line harness: code construction, seeded channel simulations,
bound curves, and code-file distance tables.

Every subcommand reads one JSON config (--config), with --seed / --trials /
--out overriding the corresponding config keys.  Outputs are UTF-8 CSV files
whose `#` header lines carry the subcommand, a hash of the effective config,
and the seed, so identical configs reproduce byte-identical files.

Exit codes: 0 success, 2 malformed input (ConfigError), 3 infeasible
request such as a cap or a dimension overflow (Infeasible), 4 numerical
precondition violated (NumericalError).  Any other exception is a bug: it
exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from .channel import ChannelSpec, apply_noisy_operator_channel_block, channel_draw_size
from .codes import (CPCodeSpec, SubspaceCode, _as_integer, binary_to_lines, code_parameters,
                    cp_construct, cp_max_k_for_delta, cp_min_distance, cp_simplified_curve,
                    load_code, min_distance_exhaustive, random_ensemble_code,
                    save_code, DEFAULT_SEARCH_CAP)
from .decoder import (decode_block, guarantee_noisy, guarantee_noisy_slack, screened,
                      single_precision)
from .errors import ConfigError, Infeasible, NumericalError
from .finitefield import MAX_Q, FiniteField, is_prime
from .subspaces import _groups, _residual_distances, pairwise

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# bytes the stacked arrays of one block of simulate trials may take
_TRIAL_BLOCK_BYTES = 2 ** 19
# trials per block at the least, and the least block for which _trial_block
# asks decode_block's screened(); see _trial_block
_MIN_TRIAL_BLOCK = 64
# trials per generator in simulate: a constant of the v4 draw stream, which
# changing would change every CSV
_TRIAL_CHUNK = 1024
# CSV lines are formatted, joined and written this many at a time
_WRITE_CHUNK = 1024
# most points a bounds grid (delta_points, rate_points) may take: at the
# cap, bounds writes 900000 rows in 10 to 16 s on a 2-core Xeon, in a
# process that peaks at 46 MB, since the rows are streamed
MAX_GRID_POINTS = 10 ** 5


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(args, keys: tuple) -> dict:
    """The --config object, any --seed, --trials or --out laid over it; ``keys`` only."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for key in ("seed", "trials", "out"):
        if (value := getattr(args, key, None)) is not None:
            cfg[key] = value
    _known_keys(cfg, keys, "config")
    if cfg.get("out") is not None:
        _path(cfg, "out")
    return cfg


def _known_keys(cfg: dict, keys: tuple, what: str) -> None:
    """ConfigError naming every key of ``cfg`` outside ``keys``, so no typo passes unread."""
    if unknown := [key for key in cfg if key not in keys]:
        raise ConfigError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _cell(value) -> str:
    """A CSV field: a float by repr, a boolean as 1/0, anything else by str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _line(row) -> str:
    """A CSV body line of the fields of ``row``."""
    return ",".join(map(_cell, row))


def _fmt(rows) -> list[str]:
    """CSV body lines of ``rows``."""
    return list(map(_line, rows))


def _write_csv(path: str | None, command: str, cfg: dict, seed, columns, lines,
               version: int = 1) -> None:
    """Write the header, naming the CSV schema's ``version``, and the
    already formatted body ``lines``."""
    # the destination is not part of the experiment: two runs of the same
    # config into different files must produce byte-identical contents
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    header = [f"# subspace-codes {command} v{version}",
              f"# config_sha256={_config_hash(hashed)} seed={seed}",
              ",".join(columns)]
    lines = itertools.chain(header, lines)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        # a chunk at a time, so a long table is never held as one text
        while chunk := list(itertools.islice(lines, _WRITE_CHUNK)):
            fh.write("\n".join(chunk) + "\n")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key '{key}' is required")
    return cfg[key]


def _path(cfg: dict, key: str) -> str:
    """cfg[key], required; ConfigError unless it is a string and not empty.
    open() would take an integer as a file descriptor, and an empty path
    would name no file."""
    if not isinstance(path := _require(cfg, key), str):
        raise ConfigError(f"config key '{key}' must be a path string, got {path!r}")
    if not path:
        raise ConfigError(f"config key '{key}' must not be empty")
    return path


def _list(cfg: dict, key: str, default: list | None = None) -> list:
    """cfg[key], ``default`` when it is absent (required when the default is
    None); ConfigError unless it is a list."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"config key '{key}' must be a list, got {value!r}")
    return value


def _integer(cfg: dict, key: str, default: int | None = None) -> int:
    """cfg[key] as an int, ``default`` when it is absent (required when the
    default is None); ConfigError for a value that is not integral."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    return _as_integer(value, f"config key '{key}'")


def _real(cfg: dict, key: str, default: float) -> float:
    """cfg[key] as a float, ``default`` when it is absent; ConfigError
    naming the key unless it is a JSON number.  Booleans and strings are
    refused, though float() would take true as 1.0 and "0.05" as 0.05."""
    value = cfg.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer past the float range
            return float(value)
    raise ConfigError(f"config key '{key}' must be a number, got {value!r}")


def _seed(cfg: dict) -> int:
    """cfg's seed; ConfigError unless it is a nonnegative integer, the
    only entropy NumPy's SeedSequence takes."""
    seed = _integer(cfg, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _field_for_order(q: int) -> FiniteField:
    if q < 2:
        raise ConfigError(f"field order {q} is not a prime power")
    if q > MAX_Q:
        raise ConfigError(f"field order {q} exceeds the supported maximum {MAX_Q}")
    # smallest prime factor; q itself when no factor is found below sqrt(q)
    p = next((cand for cand in range(2, math.isqrt(q) + 1) if q % cand == 0), q)
    x = q
    m = 0
    while x % p == 0:
        x //= p
        m += 1
    if x != 1:
        raise ConfigError(f"field order {q} is not a prime power")
    return FiniteField(p, m)


# the keys each code type reads besides 'type'
_CODE_KEYS = {"cp": ("q", "k"), "binary": ("words", "length"),
              "random-ensemble": ("n", "m", "M", "complex"), "file": ("path",)}


def build_code_from_config(cfg, seed=None) -> SubspaceCode:
    """Build a code from its config block (cp / binary / random-ensemble / file)."""
    if not isinstance(cfg, dict):
        raise ConfigError("'code' must be a JSON object")
    kind = _require(cfg, "type")
    if not isinstance(kind, str) or kind not in _CODE_KEYS:
        raise ConfigError(f"unknown code type '{kind}'")
    _known_keys(cfg, ("type", *_CODE_KEYS[kind]), f"'{kind}' code")
    if kind == "cp":
        field = _field_for_order(_integer(cfg, "q"))
        return cp_construct(CPCodeSpec(field, _integer(cfg, "k")))
    if kind == "binary":
        return binary_to_lines(_list(cfg, "words"),
                               _integer(cfg, "length") if "length" in cfg else None)
    if kind == "random-ensemble":
        if seed is None:
            raise ConfigError("random-ensemble construction needs a seed")
        if not isinstance(complex_field := cfg.get("complex", True), bool):
            raise ConfigError(f"config key 'complex' must be true or false, got {complex_field!r}")
        rng = np.random.default_rng([seed, 0])
        return random_ensemble_code(_integer(cfg, "n"), _integer(cfg, "m"),
                                    _integer(cfg, "M"), rng, complex_field=complex_field)
    return load_code(_path(cfg, "path"))


def _min_distance(cfg: dict, code: SubspaceCode) -> float:
    """d_min of the code that ``cfg`` built: from one column for a CP code,
    by the exhaustive search under search_cap otherwise.  The cap is read,
    and so checked, for either."""
    cap = _integer(cfg, "search_cap", DEFAULT_SEARCH_CAP)
    if cfg["code"]["type"] == "cp":
        return cp_min_distance(code)
    return min_distance_exhaustive(code, cap)[0]


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    cfg = _load_config(args, ("code", "seed", "search_cap", "out"))
    seed = _seed(cfg) if "seed" in cfg else None
    code = build_code_from_config(_require(cfg, "code"), seed)
    params = code_parameters(code, _min_distance(cfg, code))
    print(f"codewords        M = {params.size}")
    print(f"ambient          n = {params.ambient_dim}")
    print(f"max dimension    l = {params.max_dim}")
    print(f"weight      lambda = {params.normalized_weight!r}")
    print(f"rate             R = {params.rate!r}")
    print(f"min distance d_min = {params.min_distance!r}")
    print(f"normalized   delta = {params.normalized_min_distance!r}")
    out = cfg.get("out")
    if out:
        save_code(code, out)
        print(f"wrote {out}")
    return EXIT_OK


def _channel_from_config(cfg: dict, code: SubspaceCode):
    if not isinstance(cfg, dict):
        raise ConfigError("'channel' must be a JSON object")
    _known_keys(cfg, ("k", "rho", "t", "delta", "r_d"), "channel")
    t = _integer(cfg, "t", 0)
    delta = _real(cfg, "delta", 0.0)
    r_d = _integer(cfg, "r_d", 0)
    if "k" in cfg and "rho" in cfg:
        raise ConfigError("give either 'k' or 'rho', not both")
    if "k" in cfg:
        k = _integer(cfg, "k")
    elif "rho" in cfg:
        if not code.is_constant_dimension:
            raise ConfigError("'rho' needs a constant-dimension code; use 'k'")
        rho = _integer(cfg, "rho")
        if rho < 0:
            raise ConfigError(f"'rho' must be nonnegative, got {rho}")
        k = max(0, code[0].dim - rho)
    else:
        raise ConfigError("channel config needs 'k' or 'rho'")
    return ChannelSpec(k, t, rotation=delta, noise_dim=r_d)


_SIMULATE_COLUMNS = ["trial", "rho", "t", "delta_rot", "r_d", "tx_index", "rx_index",
                     "correct", "d_tx_rx", "guarantee_flag", "runner_up", "margin", "slack"]


def _simulate_rows(code, spec, d_min, dims, tx, rx, d_tx_rx, d_rx, runner_up):
    """The simulate CSV's trial lines, formatted by columns, _WRITE_CHUNK
    trials at a time.  rho, the flag and the slack depend on the codeword's
    dimension alone, so they are formatted once for each of ``dims``."""
    head, flag, slack = {}, {}, {}
    for m in dims:
        impairments = (max(0, m - spec.k), spec.t, spec.rotation, spec.noise_dim)
        head[m] = ",{},{},{!r},{},".format(*impairments)
        flag[m] = ",1," if guarantee_noisy(d_min, *impairments) else ",0,"
        slack[m] = repr(guarantee_noisy_slack(d_min, *impairments))
    for lo in range(0, len(tx), _WRITE_CHUNK):
        at = slice(lo, lo + _WRITE_CHUNK)
        sent_dims = code.dims[tx[at]].tolist()
        yield from map("{}{}{},{},{},{!r}{}{!r},{!r},{}".format,
                       range(lo, lo + len(sent_dims)), map(head.__getitem__, sent_dims),
                       tx[at].tolist(), rx[at].tolist(), (rx[at] == tx[at]).astype(int).tolist(),
                       d_tx_rx[at].tolist(), map(flag.__getitem__, sent_dims),
                       runner_up[at].tolist(), (runner_up[at] - d_rx[at]).tolist(),
                       map(slack.__getitem__, sent_dims))


def _trial_block(code: SubspaceCode, spec: ChannelSpec) -> int:
    """Trials that simulate runs through the channel and the decoder at once:
    _TRIAL_BLOCK_BYTES over a per-trial weight, and at least _MIN_TRIAL_BLOCK;
    a block that decode_block screens takes as many trials as keep their
    received bases, 16 n b bytes a trial, within _TRIAL_BLOCK_BYTES, up to
    one chunk of _TRIAL_CHUNK.

    The weight, 16 n (n + l + 2 b) + 8 M bytes, with l the code's largest
    dimension, b = min(l, k) + t + r_d and M the code's size, is a budget
    rule that grows with n^2 and with M, not a count of the block's arrays:
    traced, a block's peak grows by about 10.5 KB a trial on the README
    config, where the weight is 4.6 KB.  The floor holds where the weight
    leaves fewer trials, and screened() is asked of the floored block: CP
    (31,2) over k = 1, t = 0 weighs 23528 bytes, 22 trials, too few received
    rows to screen, while 64 are screened.

    A block of b received rows a trial is screened (decoder.screened) when
    the code's row entries times its received rows reach 2^20.  Every block
    pays about 1 ms of fixed cost on CP (31,2), in the channel's stacked QR
    calls, the screen's probe and the ranking, which a larger block shares
    out; and decode_block forms and nominates its tables one pairwise()
    block at a time, so they do not grow with the block.  Unscreened blocks
    keep the weight's size, since larger ones cost peak memory for little
    time.  So the block sizes are 114 on the README config, 546 on CP (31,2)
    over k = 1, t = 1, a chunk of 1024 over t = 0, and 130 on CP (127,2)
    over t = 1."""
    n, l = code.ambient_dim, code.max_dim
    b = min(l, spec.k) + spec.t + spec.noise_dim
    per_trial = 16 * n * (n + l + 2 * b) + 8 * len(code)
    block = max(_MIN_TRIAL_BLOCK, _TRIAL_BLOCK_BYTES // per_trial)
    if screened(code, block * b):
        block = max(block, min(_TRIAL_CHUNK, _TRIAL_BLOCK_BYTES // (16 * n * b)))
    return block


def _draw_sizes(code: SubspaceCode, spec: ChannelSpec, complex_field: bool) -> dict:
    """The channel's draw size for each of the code's dimensions that fits it."""
    sizes = {}
    for m in set(code.dims.tolist()):
        with contextlib.suppress(Infeasible):
            sizes[m] = channel_draw_size(m, code.ambient_dim, spec, complex_field)
    return sizes


def cmd_simulate(args) -> int:
    cfg = _load_config(args, ("code", "channel", "seed", "trials", "search_cap", "out"))
    seed = _seed(cfg)
    trials = _integer(cfg, "trials")
    if trials < 1:
        raise ConfigError("need at least one trial")
    if trials > 2**32:
        raise ConfigError(f"at most 2**32 trials, got {trials}")
    code = build_code_from_config(_require(cfg, "code"), seed)
    spec = _channel_from_config(_require(cfg, "channel"), code)
    d_min = _min_distance(cfg, code)

    n, complex_field = code.ambient_dim, np.iscomplexobj(code.rows)
    sizes = _draw_sizes(code, spec, complex_field)
    width = max(sizes.values(), default=0)
    tx = np.empty(trials, dtype=np.intp)
    rx = np.empty(trials, dtype=np.intp)
    d_tx_rx, d_rx, runner_up = np.empty(trials), np.empty(trials), np.empty(trials)
    # chunk c of _TRIAL_CHUNK trials draws from default_rng([seed, 1, c]): its
    # codeword indices in one integers call, then a row of `width` normals per
    # trial, block by block, of which a trial takes the first sizes[m].  Draws
    # made in pieces are the draw made at once, and no trial's results depend
    # on the others in its block, so the block size changes no output
    # (decode_block settles ties to within roundoff by the residual kernel)
    block = _trial_block(code, spec)
    single = single_precision(code)  # decode_block's screen, cast once per run
    for chunk, start in enumerate(range(0, trials, _TRIAL_CHUNK)):
        rng = np.random.default_rng([seed, 1, chunk])
        stop = min(start + _TRIAL_CHUNK, trials)
        tx[start:stop] = rng.integers(len(code), size=stop - start)
        for lo in range(start, stop, block):
            txs = tx[lo:min(lo + block, stop)]
            draws = rng.standard_normal((len(txs), width))
            # in trial order, so an Infeasible names the first trial that cannot fit
            for m, members in _groups(code.dims[txs]):
                if m not in sizes:
                    channel_draw_size(m, n, spec, complex_field)  # raises Infeasible
                sent = code.bases(txs[members])
                received = apply_noisy_operator_channel_block(
                    sent, spec, draws[members, :sizes[m]])
                dim = received.shape[1]
                decoded = decode_block(code, SubspaceCode._from_rows(
                    received.reshape(-1, n), np.full(len(members), dim), dim), single=single)
                at = lo + members
                rx[at], d_rx[at], runner_up[at] = decoded
                # a trial decoded to its sent codeword has d_tx_rx already: decode_block's
                # residual kernel took that pair alone, with these operands in this order
                d_tx_rx[at] = decoded.distance
                wrong = np.flatnonzero(decoded.index != txs[members])
                d_tx_rx[at[wrong]] = _residual_distances(sent[wrong], received[wrong])

    rate = int(np.count_nonzero(rx == tx)) / trials
    rows = _simulate_rows(code, spec, d_min, sizes, tx, rx, d_tx_rx, d_rx, runner_up)
    summary = ",".join(["summary", "", "", "", "", "", "", repr(rate), "", "", "", "", ""])
    _write_csv(cfg.get("out"), "simulate", cfg, seed, _SIMULATE_COLUMNS,
               itertools.chain(rows, [summary]), version=4)
    if cfg.get("out"):
        print(f"{trials} trials, success rate {rate!r}, wrote {cfg['out']}")
    return EXIT_OK


_BOUND_LABELS = ("shannon", "barg_lower", "barg_upper", "cp", "gv", "zyablov",
                 "blokh_zyablov")


def cmd_bounds(args) -> int:
    cfg = _load_config(args, ("labels", "m", "beta", "delta_min", "delta_max", "delta_points",
                              "rate_points", "cp_q", "seed", "out"))
    labels = _list(cfg, "labels", list(_BOUND_LABELS))
    for label in labels:
        if label not in _BOUND_LABELS:
            raise ConfigError(f"unknown bound label '{label}'")
    m = _integer(cfg, "m", 1)
    beta = _integer(cfg, "beta", 2)
    d_lo = _real(cfg, "delta_min", 0.02)
    d_hi = _real(cfg, "delta_max", 1.0)
    d_pts = _integer(cfg, "delta_points", 50)
    r_pts = _integer(cfg, "rate_points", 50)
    cp_qs = [_as_integer(q, "each 'cp_q' entry") for q in _list(cfg, "cp_q", [101, 1009, 10007])]
    if d_pts < 2 or r_pts < 2 or not 0.0 < d_lo < d_hi <= 2.0:
        raise ConfigError("bad grid configuration")
    if max(d_pts, r_pts) > MAX_GRID_POINTS:
        raise Infeasible(f"{max(d_pts, r_pts)} grid points exceed the cap {MAX_GRID_POINTS}")

    deltas = [d_lo + (d_hi - d_lo) * i / (d_pts - 1) for i in range(d_pts)]
    packing = [d for d in deltas if d <= 1.0]
    rates = [i / r_pts for i in range(1, r_pts)]
    # label -> (grid, point): point(x) is the (delta, rate) row at grid value x
    curves = {
        "shannon": (packing, lambda d: (d, bounds_mod.shannon_lower(d))),
        "barg_lower": (packing, lambda d: (d, bounds_mod.barg_lower(m, d, beta))),
        "barg_upper": (deltas, lambda d: (d, bounds_mod.barg_upper(m, d, beta))),
        "gv": (rates, lambda r: (bounds_mod.gv_binary_delta(r), r)),
        "zyablov": (rates, lambda r: (bounds_mod.zyablov_delta(r), r)),
        "blokh_zyablov": ([0.5 * i / r_pts for i in range(1, r_pts)],
                          lambda d: (d, bounds_mod.blokh_zyablov_rate(d))),
    }
    # every input the rows read is checked here, so a refused config writes no file
    cp_curves = [cp_simplified_curve(q) for q in cp_qs] if "cp" in labels else []
    if "barg_lower" in labels or "barg_upper" in labels:
        bounds_mod._check_m_beta(m, beta)

    def rows():
        for label in labels:
            if label == "cp":  # one curve per q
                for q, bound in zip(cp_qs, cp_curves):
                    r_max = math.log(q) / math.sqrt(q)  # rate where the bound hits zero
                    yield from ([f"cp_q{q}", bound(r), r]
                                for r in (r_max * i / r_pts for i in range(1, r_pts + 1)))
            else:
                grid, point = curves[label]
                yield from ([label, *point(x)] for x in grid)
    # rows are made as they are written, so memory does not grow with the grid's rows
    _write_csv(cfg.get("out"), "bounds", cfg, cfg.get("seed", ""),
               ["label", "delta", "rate"], map(_line, rows()))
    return EXIT_OK


def _largest_prime_below(x: int) -> int:
    for cand in range(x - 1, 1, -1):
        if is_prime(cand):
            return cand
    raise ValueError(f"no prime below {x}")


def cmd_figure3(args) -> int:
    cfg = _load_config(args, ("exponents", "delta_target", "seed", "out"))
    exponents = [_as_integer(e, "each 'exponents' entry")
                 for e in _list(cfg, "exponents", list(range(3, 11)))]
    target = _real(cfg, "delta_target", 0.5)
    columns = ["k_exponent", "n", "p", "chosen_k", "ln_code_size", "n_doubled",
               "external_comparator_1", "external_comparator_2"]
    rows = []
    for e in exponents:
        if e < 3:
            raise ConfigError("exponents below 3 leave no room for a prime")
        if e > 65:
            raise ConfigError("exponents above 65 leave the exact range of the primality test")
        p = _largest_prime_below(2 ** (e - 1))
        chosen_k = cp_max_k_for_delta(p, target)
        ln_size = chosen_k * math.log(p)
        rows.append([e, 2 * p, p, chosen_k, float(ln_size), 2 * (p - 1), "", ""])
    _write_csv(cfg.get("out"), "figure3", cfg, cfg.get("seed", ""), columns, _fmt(rows))
    return EXIT_OK


def cmd_distance(args) -> int:
    code_a = load_code(args.file_a)
    code_b = load_code(args.file_b)
    table = pairwise(code_a, code_b)  # ConfigError unless the codes share an ambient space
    rows_a, rows_b = table.shape
    # built column by column: index_a repeats each index, index_b cycles
    col_a = itertools.chain.from_iterable(itertools.repeat(f"{i},", rows_b)
                                          for i in range(rows_a))
    col_b = [f"{j}," for j in range(rows_b)] * rows_a
    # repr of Python floats: under NumPy 2, repr of an np.float64 is np.float64(...)
    col_d = map(repr, table.ravel().tolist())
    _write_csv(args.out, "distance",
               {"file_a": args.file_a, "file_b": args.file_b}, "",
               ["index_a", "index_b", "distance"], map("".join, zip(col_a, col_b, col_d)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-codes",
        description="analog subspace codes: construction, simulation, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code, report parameters, write a code file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run seeded channel/decoder trials into a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="tabulate rate/distance bound curves into a CSV")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("figure3", help="largest-prime CP sizes at a target distance")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("distance", help="pairwise distances between two code files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_distance)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out == "":  # every subcommand takes --out
            raise ConfigError("option '--out' must not be empty")
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical precondition violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Infeasible as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
