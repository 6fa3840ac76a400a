"""Strict JSON run configuration.

Schema (defaults in brackets):

    {
      "potential": {"kind": ..., ...params},   # or "response_csv": path
      "T": number,            # control horizon; response data live on [0, 2T]
      "n": int,               # steps per horizon T (>= 8)
      "spectral": {"N": [4T], "bc": [[1,0,1,0]], "cutoff": [400],
                   "mesh": [2048]},
      "stages": [all],        # kernels response connect krein gl spectral;
                              # completed with prerequisites, in that order
      "out": ["out"],
      "sign": ["derived"],    # or "paper" (left half-line q convention)
      "seed": [0]             # RNG seed for generated test controls
    }

Unknown keys anywhere are rejected by name; the JSON form of
:func:`config_to_dict` parses back to the same config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError

#: Each stage, in run order, with the stages whose output it reads.
STAGES = {"kernels": (), "response": ("kernels",), "connect": ("response",),
          "krein": ("response",), "gl": ("response",),
          "spectral": ("response",)}
ALL_STAGES = tuple(STAGES)
FORWARD_STAGES = ("kernels", "response", "spectral")   # need a potential
INVERSE_STAGES = ("connect", "krein", "gl")


@dataclass(frozen=True)
class SpectralOptions:
    half_length: float
    bc: tuple
    cutoff: int
    mesh: int


@dataclass(frozen=True)
class RunConfig:
    """A checked run; ``dataclasses.replace`` makes a checked copy."""

    T: float
    n: int
    potential: dict | None = None
    response_csv: str | None = None
    spectral: SpectralOptions | None = None
    stages: tuple = ALL_STAGES
    out: str = "out"
    sign: str = "derived"
    seed: int = 0

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError("T must be positive")
        if self.n < 8:
            raise ConfigError("n must be at least 8")
        if (self.potential is None) == (self.response_csv is None):
            raise ConfigError(
                "exactly one of 'potential' and 'response_csv' is required")
        for key, types in (("response_csv", (str, type(None))),
                           ("out", str)):
            if not isinstance(getattr(self, key), types):
                raise ConfigError("'%s' must be a string" % key)
        if self.sign not in ("derived", "paper"):
            raise ConfigError("sign must be 'derived' or 'paper'")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.spectral is None:
            object.__setattr__(self, "spectral", SpectralOptions(
                4.0 * self.T, (1.0, 0.0, 1.0, 0.0), 400, 2048))
        spec = self.spectral
        if spec.half_length <= 0:
            raise ConfigError("spectral.N must be positive")
        a1, b1, a2, b2 = spec.bc
        if (a1 == 0.0 and b1 == 0.0) or (a2 == 0.0 and b2 == 0.0):
            raise ConfigError("spectral.bc with a = b = 0 at an end is not "
                              "self-adjoint")
        if spec.cutoff < 1:
            raise ConfigError("spectral.cutoff must be at least 1")
        if spec.mesh % 2:
            raise ConfigError("spectral.mesh must be even")
        if spec.cutoff >= spec.mesh // 2:
            raise ConfigError("spectral.cutoff must be below spectral.mesh/2")
        object.__setattr__(self, "stages", _complete_stages(
            self.stages, self.response_csv is not None))
        if "spectral" in self.stages and spec.half_length <= self.T:
            raise ConfigError("spectral.N must exceed T")


def _complete_stages(given, from_csv: bool) -> tuple:
    """``given`` with each stage's prerequisites, once each, in table
    order; on the response CSV route less the forward stages, which only
    the list of all stages may name."""
    if not (isinstance(given, (list, tuple))
            and all(isinstance(st, str) and st in STAGES for st in given)):
        raise ConfigError("'stages' must be a list of stage names (%s), got "
                          "%.60r" % (" ".join(ALL_STAGES), given))
    if not given:
        raise ConfigError("'stages' must name at least one stage (%s)"
                          % " ".join(ALL_STAGES))
    bad = [st for st in FORWARD_STAGES if st in given]
    if from_csv and bad and set(given) != set(ALL_STAGES):
        raise ConfigError(
            "stage '%s' needs a potential, not a response CSV" % bad[0])
    wanted = set(given)
    for st in reversed(ALL_STAGES):   # prerequisites precede their stages
        if st in wanted:
            wanted.update(STAGES[st])
    drop = FORWARD_STAGES if from_csv else ()
    return tuple(st for st in ALL_STAGES if st in wanted and st not in drop)


def memory_estimate(cfg: RunConfig, n_inverse: int | None = None) -> int:
    """Rough peak bytes of the arrays the configured stages hold.

    The kernels take two (2n+1)^2 cone stores, the inverse stages seven
    dense (2n+2)^2 matrices, and the spectral stage a few (cutoff, mesh+1)
    arrays, all float64.  The kernels stay alive while the later stages
    run, so the terms add.  The inverse stages share two such matrices
    (C, held once, and the nested factor); the gl stage adds its result
    m and its panel arrays, then, with the factor freed, the identity
    residual's three buffers.  That peak (C, m and the three buffers) is
    near 5.3 of them (traced at n = 320), and seven leave the allocator
    headroom.
    ``n_inverse`` replaces ``cfg.n`` in the inverse term: on the response
    CSV route the file, not the config, sets the size.
    """
    stages = set(cfg.stages)
    total = 0
    if "kernels" in stages:
        total += 2 * (2 * cfg.n + 1) ** 2 * 8
    if stages.intersection(INVERSE_STAGES):
        n = cfg.n if n_inverse is None else n_inverse
        total += 7 * (2 * n + 2) ** 2 * 8
    if "spectral" in stages:
        total += 4 * cfg.spectral.cutoff * (cfg.spectral.mesh + 1) * 8
    return total


def check_memory(cfg: RunConfig, n_inverse: int | None = None) -> None:
    """ConfigError if :func:`memory_estimate` exceeds physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no POSIX sysconf: nothing to compare against
    need = memory_estimate(cfg, n_inverse)
    if need > physical:
        n = cfg.n if n_inverse is None else n_inverse
        raise ConfigError("the stages need about %.3g GB (n = %d, "
                          "spectral.mesh = %d), more than the %.3g GB of "
                          "physical memory" % (need / 1e9, n,
                                               cfg.spectral.mesh,
                                               physical / 1e9))


def _take(d: dict, allowed, where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError("unknown key '%s' in %s" % (key, where))


def _non_finite(token: str):
    raise ConfigError("non-finite number '%s'" % token)


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _non_finite(token)
    return value


def finite_number(value, key: str) -> float:
    """``float(value)``, which must be finite; ConfigError names the key.

    JSON strings and integers beyond float range reach this coercion as
    well as number tokens, so it is checked here, not only in the parser.
    JSON ``true`` and ``false`` are not numbers, although Python's bool
    converts.
    """
    if isinstance(value, bool):
        raise ConfigError("'%s' must be a number, got %s"
                          % (key, json.dumps(value)))
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError("'%s' must be a finite number, got %.40r"
                          % (key, value))
    return number


def _integer(value, key: str) -> int:
    """``int(value)``, which must be an integer; ConfigError names the
    key.  An integral float such as 64.0 counts; 64.7 is never truncated.
    """
    finite_number(value, key)
    try:
        integer = int(value)
    except ValueError:
        integer = None
    if integer is None or (isinstance(value, float) and integer != value):
        raise ConfigError("'%s' must be an integer, got %.40r" % (key, value))
    return integer


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text, parse_constant=_non_finite,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _take(raw, {"potential", "response_csv", "T", "n", "spectral", "stages",
                "out", "sign", "seed"}, "config")
    if "T" not in raw or "n" not in raw:
        raise ConfigError("config requires 'T' and 'n'")
    T = finite_number(raw["T"], "T")
    spec = None
    if "spectral" in raw:
        s = raw["spectral"]
        if not isinstance(s, dict):
            raise ConfigError("'spectral' must be an object")
        _take(s, {"N", "bc", "cutoff", "mesh"}, "spectral")
        bc = s.get("bc", [1.0, 0.0, 1.0, 0.0])
        if not isinstance(bc, list) or len(bc) != 4:
            raise ConfigError("spectral.bc must have 4 entries")
        spec = SpectralOptions(
            finite_number(s.get("N", 4.0 * T), "spectral.N"),
            tuple(finite_number(v, "spectral.bc") for v in bc),
            _integer(s.get("cutoff", 400), "spectral.cutoff"),
            _integer(s.get("mesh", 2048), "spectral.mesh"))
    pot = raw.get("potential")
    if pot is not None and not isinstance(pot, dict):
        raise ConfigError("'potential' must be an object")
    return RunConfig(
        T=T,
        n=_integer(raw["n"], "n"),
        potential=pot,
        response_csv=raw.get("response_csv"),
        spectral=spec,
        stages=raw.get("stages", ALL_STAGES),
        out=raw.get("out", "out"),
        sign=raw.get("sign", "derived"),
        seed=_integer(raw.get("seed", 0), "seed"),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    d = {"T": cfg.T, "n": cfg.n,
         "spectral": {"N": cfg.spectral.half_length,
                      "bc": list(cfg.spectral.bc),
                      "cutoff": cfg.spectral.cutoff,
                      "mesh": cfg.spectral.mesh},
         "stages": list(cfg.stages), "out": cfg.out, "sign": cfg.sign,
         "seed": cfg.seed}
    if cfg.potential is not None:
        d["potential"] = cfg.potential
    else:
        d["response_csv"] = cfg.response_csv
    return d

