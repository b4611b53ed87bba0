"""Parametric heavy- and light-tailed laws and a truncated-sample generator.

Heavy tails are exact Pareto or Burr; both expose closed-form survival
functions and inverses, so sampling is one uniform per draw with no
rejection. Truncated samples replace every heavy draw above the threshold
M_n = A * n**delta with M_n plus an independent light-tailed excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._params import _check_n, _check_seed, _require_positive
from .estimator import SampleData, _adopt, _TailTooShort

__all__ = [
    "Pareto",
    "Burr",
    "Zero",
    "Exponential",
    "Uniform",
    "TailModel",
    "LightTailModel",
    "TruncationScheme",
    "TruncatedSampleSpec",
    "sample_tail",
    "sample_truncated",
    "parse_tail_model",
    "parse_light_model",
    "parse_truncation",
]

# Largest exponential draw at rate 1: -log(1 - U) with U <= 1 - 2**-53.
_MAX_UNIT_EXP_DRAW = 53 * math.log(2.0)

# Fixed stream ids: heavy draws and light excesses never share a stream.
_H_STREAM = 0
_L_STREAM = 1

# Philox yields 4 64-bit words per counter step, and each light value uses
# one word (one rng.random double), so skipping a whole block of light values
# is a counter advance of _BLOCK // _PHILOX_WORDS steps.
_PHILOX_WORDS = 4
_BLOCK = 4096

# A replication compares its raw heavy words 2**16 at a time: 512 KB stay in
# cache, where one array of all n words is 8 MB at n = 1e6.
_RAW_CHUNK = 2**16


def _store_positive(model, fields: dict[str, str]) -> None:
    """Apply the positive rule to each field {attribute: name in errors} of a
    frozen model, and store the value it returns."""
    for attr, name in fields.items():
        object.__setattr__(model, attr, _require_positive(name, getattr(model, attr)))


def _stream(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based, so a (seed, stream) pair pins the whole
    # stream independently of scheduling or how other streams are consumed.
    key = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class Pareto:
    """P(H > x) = (x/xmin)**(-alpha) for x >= xmin, 1 below."""

    alpha: float
    xmin: float = 1.0

    def __post_init__(self):
        _store_positive(self, {"alpha": "alpha", "xmin": "xmin"})

    @property
    def rho(self) -> float | None:
        """Second-order exponent; None because the Pareto tail is first-order exact."""
        return None

    def survival(self, x: float) -> float:
        if x < self.xmin:
            return 1.0
        return (x / self.xmin) ** -self.alpha

    def quantile_b(self, y: float) -> float:
        """Smallest x with survival(x) <= 1/y, for y >= 1."""
        if y < 1.0:
            raise ValueError(f"quantile_b requires y >= 1, got {y}")
        return self.xmin * y ** (1.0 / self.alpha)

    def slowly_varying(self, x: float) -> float:
        """x**alpha * survival(x); constant xmin**alpha on the support."""
        if x < self.xmin:
            raise ValueError(f"x = {x} is below the support [{self.xmin}, inf)")
        return x**self.alpha * self.survival(x)

    def second_order_auxiliary(self, t: float) -> float:
        raise ValueError(
            "Pareto tail is first-order exact; no second-order auxiliary rate"
        )

    def _inverse_survival(self, u: np.ndarray) -> np.ndarray:
        """Transform survival probabilities u in (0, 1] into draws, in place."""
        u **= -1.0 / self.alpha
        u *= self.xmin
        return u


@dataclass(frozen=True)
class Burr:
    """P(H > x) = (1 + x**tau)**(-lam) for x >= 0; tail index tau * lam."""

    tau: float
    lam: float

    def __post_init__(self):
        _store_positive(self, {"tau": "tau", "lam": "lambda"})

    @property
    def alpha(self) -> float:
        return self.tau * self.lam

    @property
    def rho(self) -> float:
        return -1.0 / self.lam

    def survival(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        t = self.tau * math.log(x)
        if t > 690.0:  # x**tau would overflow; 1 + x**tau == x**tau here anyway
            return math.exp(-self.lam * t)
        return (1.0 + math.exp(t)) ** -self.lam

    def quantile_b(self, y: float) -> float:
        """Smallest x with survival(x) <= 1/y, for y >= 1: (y**(1/lam) - 1)**(1/tau)."""
        if y < 1.0:
            raise ValueError(f"quantile_b requires y >= 1, got {y}")
        return math.expm1(math.log(y) / self.lam) ** (1.0 / self.tau)

    def slowly_varying(self, x: float) -> float:
        """x**alpha * survival(x) = (x**tau / (1 + x**tau))**lam; tends to 1."""
        if x < 0.0:
            raise ValueError(f"x = {x} is below the support [0, inf)")
        if x == 0.0:
            return 0.0
        t = -self.tau * math.log(x)
        if t > 690.0:  # x**-tau would overflow; here l(x) ~ x**alpha
            return math.exp(-self.lam * t)
        return math.exp(-self.lam * math.log1p(math.exp(t)))

    def second_order_auxiliary(self, t: float) -> float:
        """Rate A(t) = t**(-tau) / (tau * lam) in the survival-ratio expansion

            [survival(t x)/survival(t) - x**(-alpha)] / A(t)
                -> x**(-alpha) * (x**(rho*alpha) - 1) / (rho/alpha),

        obtained by matching (1 + x**tau)**(-lam) = x**(-tau*lam) *
        (1 - lam*x**(-tau) + O(x**(-2 tau))) against the limit form.
        """
        if not t > 0.0:
            raise ValueError(f"t must be positive, got {t}")
        return t**-self.tau / (self.tau * self.lam)

    def _inverse_survival(self, u: np.ndarray) -> np.ndarray:
        """Transform survival probabilities u in (0, 1] into draws, in place."""
        np.log(u, out=u)
        u /= -self.lam
        np.expm1(u, out=u)
        u **= 1.0 / self.tau
        return u


TailModel = Pareto | Burr


@dataclass(frozen=True)
class Zero:
    """Degenerate excess: L = 0 always."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n zeros; draws nothing from rng."""
        return np.zeros(n)


@dataclass(frozen=True)
class Exponential:
    """Exponential excess with the given rate; every moment is finite."""

    rate: float = 1.0

    def __post_init__(self):
        _store_positive(self, {"rate": "rate"})
        if not math.isfinite(_MAX_UNIT_EXP_DRAW / self.rate):
            raise ValueError(f"rate must be large enough for finite draws, got {self.rate!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n excesses by inversion, -log(1 - U)/rate; value i comes from the
        i-th double of one rng.random(n) call."""
        return -np.log1p(-rng.random(n)) / self.rate


@dataclass(frozen=True)
class Uniform:
    """Uniform excess on [0, b)."""

    b: float = 1.0

    def __post_init__(self):
        _store_positive(self, {"b": "b"})

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n excesses b * U; value i comes from the i-th double of one
        rng.random(n) call."""
        return self.b * rng.random(n)


# Contract of every light model: sample(rng, n) computes value i elementwise
# from the i-th double of one rng.random(n) call, in order, or draws nothing.
# sample_truncated relies on it to skip the parts of the stream it does not use.
LightTailModel = Zero | Exponential | Uniform


@dataclass(frozen=True)
class TruncationScheme:
    """Threshold sequence M_n = A * n**delta; strictly increasing and unbounded."""

    A: float = 1.0
    delta: float = 0.5

    def __post_init__(self):
        _store_positive(self, {"A": "A", "delta": "delta"})

    def threshold(self, n: int) -> float:
        """M_n in floating point; a level, never rounded to a count."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        try:
            m = self.A * float(n) ** self.delta
        except OverflowError:  # float ** float raises where float * float gives inf
            m = math.inf
        if not math.isfinite(m):
            raise ValueError(
                f"M_n = A * n**delta overflows at n = {n}: A = {self.A!r}, delta = {self.delta!r}"
            )
        return m


@dataclass(frozen=True)
class TruncatedSampleSpec:
    """Full generative model: heavy tail, light excess, threshold rule, n, seed."""

    tail: TailModel
    light: LightTailModel
    truncation: TruncationScheme
    n: int
    seed: int

    def __post_init__(self):
        _check_n(self.n)
        _check_seed(self.seed)


def sample_tail(model: TailModel, n: int, seed: int) -> np.ndarray:
    """n i.i.d. heavy-tail draws by inverse-survival sampling, one uniform each.

    A draw beyond the float range is +inf, which ``sample_truncated`` always
    caps, since every threshold M_n is finite.
    """
    _check_n(n)
    _check_seed(seed)
    s = _stream(seed, _H_STREAM).random(n)
    np.subtract(1.0, s, out=s)  # survival probabilities 1 - U, in (0, 1]
    with np.errstate(over="ignore"):
        return model._inverse_survival(s)


def sample_truncated(spec: TruncatedSampleSpec) -> SampleData:
    """Apply the threshold rule to raw heavy draws:
    X = H if H <= M_n else M_n + L, with H and L on independent streams.
    """
    return _truncated(spec, 1.0)


def _truncated(spec: TruncatedSampleSpec, s_cut: float) -> SampleData:
    """The truncated sample of spec, or, for s_cut < 1, only its top: the
    values whose heavy draw has survival probability s <= s_cut, above a floor.

    The tail holds the same values as the whole sample at the same positions,
    since both transform the same uniforms elementwise. Position j of the
    light stream holds the excess for position j of the sample, as if all n
    excesses were drawn; only the blocks that hold a capped position are
    drawn, and the stream is advanced past the others.
    """
    n = spec.n
    m = spec.truncation.threshold(n)
    # overflowing heavy draws are +inf and get capped; only an overflowing
    # M_n + L is an error
    with np.errstate(over="ignore"):
        if s_cut >= 1.0:
            heavy, where = sample_tail(spec.tail, n, spec.seed), None
        else:
            # a value left out is at most the floor, unless it was capped
            floor = _tail_floor(spec.tail, s_cut)
            if floor >= m:
                raise _TailTooShort(f"floor {floor!r} is not below M_n = {m!r}")
            where, s = _tail_survivals(n, spec.seed, s_cut)
            heavy = spec.tail._inverse_survival(s)
        big = np.flatnonzero(heavy > m)
        capped = big if where is None else where[big]  # ascending sample positions
        block = capped // _BLOCK
        # capped positions in consecutive blocks form one run, drawn in one call
        first = [0, *(np.flatnonzero(np.diff(block) > 1) + 1).tolist()] if capped.size else []
        rng = _stream(spec.seed, _L_STREAM)
        drawn = 0  # light values the stream has produced so far
        for i, j in zip(first, first[1:] + [capped.size]):
            lo, hi = int(block[i]) * _BLOCK, min((int(block[j - 1]) + 1) * _BLOCK, n)
            rng.bit_generator.advance((lo - drawn) // _PHILOX_WORDS)
            light = spec.light.sample(rng, hi - lo)
            bumped = m + light[capped[i:j] - lo]
            if not np.all(np.isfinite(bumped)):
                raise ValueError(f"M_n + L overflows: M_n = {m!r}, light = {spec.light!r}")
            heavy[big[i:j]] = bumped
            drawn = hi
    # The whole sample keeps its checked copy: handed over uncopied, it left
    # a heap on which the tail-scan benchmark's passes ran slower.
    return SampleData(heavy) if where is None else _adopt(heavy, n, floor)


def _tail_survivals(n: int, seed: int, s_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending positions of the n heavy draws whose survival probability
    s = 1 - U is at most s_cut, for 0 <= s_cut < 1, and those s.

    Generator.random on Philox turns raw word w into U = (w >> 11) * 2**-53,
    so s = (2**53 - (w >> 11)) * 2**-53 exactly, and s_cut * 2**53 is exact.
    Hence s <= s_cut exactly when w >> 11 >= j = 2**53 - floor(s_cut * 2**53),
    that is when w > (j << 11) - 1, which fits 64 bits also for j = 2**53,
    where no word qualifies. Each kept s is formed by the same two exact
    steps as 1 - random(), so it equals that double bit for bit. Every
    operand next to a uint64 array is a np.uint64, so no comparison is made
    in float64.
    """
    bits = _stream(seed, _H_STREAM).bit_generator
    j = 2**53 - math.floor(s_cut * 2.0**53)
    least = np.uint64((j << 11) - 1)
    where, kept = [], []
    # consecutive random_raw calls continue one word sequence
    for lo in range(0, n, _RAW_CHUNK):
        w = bits.random_raw(min(_RAW_CHUNK, n - lo))
        i = np.flatnonzero(w > least)
        where.append(i + lo)
        kept.append(w[i])
    s = (np.concatenate(kept) >> np.uint64(11)).astype(float)
    s *= 2.0**-53
    np.subtract(1.0, s, out=s)
    return np.concatenate(where), s


def _tail_floor(model: TailModel, s_cut: float) -> float:
    """A level at or above every draw whose survival probability exceeds s_cut.

    Such a draw lies below the transform of s_cut. Each step of
    _inverse_survival (log, division, expm1, power, product) is monotone up
    to a few ulps of its result. The log step errs by a few ulps of
    |log s| <= 745, far less than the shift of log s by the relative margin
    1e-9 that shrinking s_cut makes, and later steps keep that order; the
    last step's own rounding, a few ulps, is covered by raising the result
    by the same margin. Overflow gives +inf, which is still a bound.
    """
    margin = 1e-9
    edge = model._inverse_survival(np.array([s_cut * (1.0 - margin)]))
    return float(edge[0]) * (1.0 + margin)


def _parse_fields(body: str, what: str, keys: dict[str, float | None]) -> dict[str, float]:
    """Parse 'k=v,k=v' with case-insensitive keys; unknown keys are errors.

    ``keys`` maps each accepted lowercase key to its default, None meaning
    the key is required.
    """
    out: dict[str, float] = {}
    body = body.strip()
    if body:
        for part in body.split(","):
            if "=" not in part:
                raise ValueError(f"{what}: expected key=value, got {part.strip()!r}")
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            if key not in keys:
                raise ValueError(f"{what}: unknown key {key!r}")
            if key in out:
                raise ValueError(f"{what}: duplicate key {key!r}")
            try:
                out[key] = float(raw)
            except ValueError:
                raise ValueError(
                    f"{what}: value for {key!r} is not a number: {raw.strip()!r}"
                ) from None
    for key, default in keys.items():
        if key not in out:
            if default is None:
                raise ValueError(f"{what}: missing required key {key!r}")
            out[key] = default
    return out


def parse_tail_model(text: str) -> TailModel:
    """Parse 'pareto:alpha=2,xmin=1' or 'burr:tau=1,lambda=2' (case-insensitive)."""
    name, _, body = text.strip().partition(":")
    name = name.strip().lower()
    if name == "pareto":
        kv = _parse_fields(body, "pareto", {"alpha": None, "xmin": 1.0})
        return Pareto(alpha=kv["alpha"], xmin=kv["xmin"])
    if name == "burr":
        kv = _parse_fields(body, "burr", {"tau": None, "lambda": None})
        return Burr(tau=kv["tau"], lam=kv["lambda"])
    raise ValueError(f"unknown tail model {name!r}: expected 'pareto' or 'burr'")


def parse_light_model(text: str) -> LightTailModel:
    """Parse 'zero', 'exp:rate=1' or 'uniform:b=1', with optional 'light:' prefix."""
    body = text.strip()
    if body.lower().startswith("light:"):
        body = body[len("light:"):]
    name, _, rest = body.partition(":")
    name = name.strip().lower()
    if name == "zero":
        if rest.strip():
            raise ValueError("zero light tail takes no parameters")
        return Zero()
    if name in ("exp", "exponential"):
        kv = _parse_fields(rest, "exp", {"rate": 1.0})
        return Exponential(rate=kv["rate"])
    if name == "uniform":
        kv = _parse_fields(rest, "uniform", {"b": None})
        return Uniform(b=kv["b"])
    raise ValueError(
        f"unknown light tail {name!r}: expected 'zero', 'exp' or 'uniform'"
    )


def parse_truncation(text: str) -> TruncationScheme:
    """Parse 'A=1,delta=0.8', with optional 'trunc:' prefix (case-insensitive)."""
    body = text.strip()
    if body.lower().startswith("trunc:"):
        body = body[len("trunc:"):]
    kv = _parse_fields(body, "trunc", {"a": None, "delta": None})
    return TruncationScheme(A=kv["a"], delta=kv["delta"])
