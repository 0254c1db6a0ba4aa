"""Channel-state construction and validation.

Two structured families are supported, plus a free-form escape hatch:

* parity — supports are bitstrings with an odd number of 0 bits; the
  correction rules are exact only for an odd party count.
* domino — staircase supports ``0^(n-i) 1^i``; works for any party count.
* custom — no support-shape checks (normalization still enforced), for
  counterexample exploration.

A channel is one endpoint qubit plus ``n_parties`` shared qubits: the
endpoint's |1> branch carries the complemented supports with the same
amplitudes. Mixtures are classical: a list of weighted pure components.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bell import BELL_OUTCOMES, as_rng, bell_vector
from .statevec import DEFAULT_QUBIT_CAP, CapacityError, DensityMatrix, StateVector

WEIGHT_ATOL = 1e-10
COEFF_NORM_ATOL = 1e-10
RANDOM_MIN_AMP = 1e-6  # random_channel redraws any coefficient smaller in modulus

_COMPLEMENT = str.maketrans("01", "10")
_SQRT_HALF = float(1.0 / np.sqrt(2.0))

TELECLONING_MAIN_AMP = float(np.sqrt(2.0 / 3.0))
TELECLONING_SIDE_AMP = float(1.0 / np.sqrt(6.0))


class Variant(Enum):
    PARITY = "parity"
    DOMINO = "domino"
    CUSTOM = "custom"


class Endpoint(Enum):
    SENDER_FIRST = "sender"
    RECEIVER_LAST = "receiver"


class ChannelValidationError(ValueError):
    """A channel description violates one of its construction rules."""


def complement(bits: str) -> str:
    """Bitwise complement of a 0/1 string."""
    return bits.translate(_COMPLEMENT)


def parity_support(n: int) -> list[str]:
    """All length-n bitstrings with an odd number of 0 bits, lexicographic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"support enumeration capped at n = {DEFAULT_QUBIT_CAP}")
    return [format(k, f"0{n}b") for k in range(1 << n) if (n - bin(k).count("1")) % 2 == 1]


def domino_support(n: int) -> list[str]:
    """The staircase strings 0^(n-i) 1^i for i = 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ["0" * (n - i) + "1" * i for i in range(n)]


@dataclass(frozen=True)
class Component:
    """One pure term of a channel mixture: a weight plus its support
    amplitudes as (bits, amplitude) pairs in a stable order."""

    weight: float
    coeffs: tuple[tuple[str, complex], ...]


def make_component(weight: float, coeffs) -> Component:
    """Build a Component from a dict or an iterable of (bits, amp) pairs."""
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    return Component(float(weight), tuple((str(b), complex(a)) for b, a in items))


def _is_staircase(bits: str) -> bool:
    return "10" not in bits and "0" in bits


def _validate_spec(spec: ChannelSpec) -> None:
    if spec.n_parties < 1:
        raise ChannelValidationError("parties: n_parties must be >= 1")
    if not spec.components:
        raise ChannelValidationError("components: at least one component required")
    total_weight = sum(c.weight for c in spec.components)
    if not abs(total_weight - 1.0) <= WEIGHT_ATOL:
        raise ChannelValidationError(f"weights: component weights sum to {total_weight}, expected 1")
    for idx, comp in enumerate(spec.components):
        if not 0.0 < comp.weight <= 1.0:
            raise ChannelValidationError(f"weights: component {idx} weight {comp.weight} not in (0, 1]")
        if not comp.coeffs:
            raise ChannelValidationError(f"supports: component {idx} has no coefficients")
        seen = set()
        norm_sq = 0.0
        for bits, amp in comp.coeffs:
            if len(bits) != spec.n_parties or set(bits) - {"0", "1"}:
                raise ChannelValidationError(
                    f"support-shape: '{bits}' is not a {spec.n_parties}-bit string"
                )
            if bits in seen:
                raise ChannelValidationError(f"distinct-supports: '{bits}' repeated in component {idx}")
            seen.add(bits)
            norm_sq += amp.real * amp.real + amp.imag * amp.imag  # inf, not OverflowError, on overflow
            if spec.variant is Variant.PARITY and bits.count("0") % 2 == 0:
                raise ChannelValidationError(
                    f"parity-support: '{bits}' has an even number of 0 bits"
                )
            if spec.variant is Variant.DOMINO and not _is_staircase(bits):
                raise ChannelValidationError(
                    f"domino-support: '{bits}' is not of the form 0..01..1"
                )
        if not abs(norm_sq - 1.0) <= COEFF_NORM_ATOL:
            raise ChannelValidationError(
                f"normalization: component {idx} has sum |amp|^2 = {norm_sq}, expected 1"
            )


@dataclass(frozen=True)
class ChannelSpec:
    """Validated description of a (possibly mixed) channel."""

    variant: Variant
    n_parties: int
    endpoint: Endpoint
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
            object.__setattr__(self, "endpoint", Endpoint(self.endpoint))
            object.__setattr__(self, "n_parties", operator.index(self.n_parties))  # a numpy integer, as an int
        except TypeError:  # only operator.index raises it: 2.0 would fail in the first run's bit shift
            raise ChannelValidationError(f"parties: n_parties must be an integer, got {self.n_parties!r}") from None
        except ValueError as exc:
            raise ChannelValidationError(str(exc)) from None
        _validate_spec(self)
        # Cached: the generated hash walks every component, and each run looks its pair plan up.
        object.__setattr__(self, "_hash", hash((self.variant, self.n_parties, self.endpoint, self.components)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # pickles rebuild the spec, so a cached hash never goes stale
        return ChannelSpec, (self.variant, self.n_parties, self.endpoint, self.components)

    @property
    def faithfulness_guaranteed(self) -> bool:
        """Whether the correction rules reconstruct the input exactly.

        Parity channels lose the guarantee for an even party count: the
        complement of an odd-zero string is then itself odd-zero, so the two
        endpoint branches can share supports and interfere. Custom channels
        carry no guarantee.
        """
        if self.variant is Variant.DOMINO:
            return True
        if self.variant is Variant.PARITY:
            return self.n_parties % 2 == 1
        return False


def pure_channel(variant: Variant, n_parties: int, coeffs, endpoint: Endpoint) -> ChannelSpec:
    return ChannelSpec(variant, n_parties, endpoint, (make_component(1.0, coeffs),))


def mixed_channel(variant: Variant, n_parties: int, endpoint: Endpoint, weighted_coeffs) -> ChannelSpec:
    comps = tuple(make_component(w, c) for w, c in weighted_coeffs)
    return ChannelSpec(variant, n_parties, endpoint, comps)


def build_channel_component(
    component: Component, variant: Variant, endpoint: Endpoint, n_parties: int
) -> StateVector:
    """Materialize one pure channel term over ``n_parties + 1`` qubits.

    The endpoint qubit is prepended (sender) or appended (receiver). Its |0>
    branch carries the supports as written, the |1> branch their bitwise
    complements, both with the written amplitudes over sqrt(2).
    """
    amps = np.zeros(1 << (n_parties + 1), dtype=complex)
    for bits, amp in component.coeffs:
        direct = int(bits, 2)
        flipped = int(complement(bits), 2)
        if endpoint is Endpoint.SENDER_FIRST:
            amps[direct] += amp * _SQRT_HALF
            amps[(1 << n_parties) + flipped] += amp * _SQRT_HALF
        else:
            amps[2 * direct] += amp * _SQRT_HALF
            amps[2 * flipped + 1] += amp * _SQRT_HALF
    return StateVector(n_parties + 1, amps)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Classical mixture of pure states with weights summing to 1; a bad
    weight fails ``DensityMatrix``'s trace check in ``to_density``."""

    entries: tuple[tuple[float, StateVector], ...]

    def to_density(self) -> DensityMatrix:
        """Weighted projector sum, added up in entry order."""
        terms = [weight * np.outer(state.amps, state.amps.conj()) for weight, state in self.entries]
        return DensityMatrix(self.entries[0][1].num_qubits, sum(terms[1:], terms[0]))


def expand_mixture(spec: ChannelSpec) -> Ensemble:
    """One ensemble entry per mixture component, weights copied through."""
    return Ensemble(
        tuple(
            (c.weight, build_channel_component(c, spec.variant, spec.endpoint, spec.n_parties))
            for c in spec.components
        )
    )


def telecloning_channel(endpoint: Endpoint = Endpoint.SENDER_FIRST) -> ChannelSpec:
    """Three-party channel that spreads a qubit into two optimal clones plus
    one anticlone: amplitude sqrt(2/3) on the aligned support and 1/sqrt(6)
    on each of the two mixed supports."""
    coeffs = {
        "000": TELECLONING_MAIN_AMP,
        "101": TELECLONING_SIDE_AMP,
        "110": TELECLONING_SIDE_AMP,
    }
    return pure_channel(Variant.PARITY, 3, coeffs, endpoint)


def smolin_state() -> DensityMatrix:
    """Four-qubit unlockable bound entangled state: the equal mixture of the
    four doubled Bell projectors on qubit pairs (1,2) and (3,4)."""
    rho = np.zeros((16, 16), dtype=complex)
    for outcome in BELL_OUTCOMES:
        vec = np.kron(bell_vector(outcome).amps, bell_vector(outcome).amps)
        rho += 0.25 * np.outer(vec, vec.conj())
    return DensityMatrix(4, rho)


# The same state decomposes into four equally weighted parity components for
# three parties; the minus-signed pairs are what the doubled phi-/psi- terms
# contribute.
_SMOLIN_COMPONENTS = (
    (("000", _SQRT_HALF), ("011", _SQRT_HALF)),
    (("101", _SQRT_HALF), ("110", _SQRT_HALF)),
    (("101", _SQRT_HALF), ("110", -_SQRT_HALF)),
    (("000", _SQRT_HALF), ("011", -_SQRT_HALF)),
)


def smolin_channel(endpoint: Endpoint = Endpoint.RECEIVER_LAST) -> ChannelSpec:
    """``smolin_state`` written as an equal 4-component parity mixture."""
    return mixed_channel(Variant.PARITY, 3, endpoint, [(0.25, c) for c in _SMOLIN_COMPONENTS])


def ghz_channel(n_parties: int, endpoint: Endpoint) -> ChannelSpec:
    """(n+1)-qubit GHZ chain as a single-support staircase channel."""
    if n_parties > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"ghz channel capped at n = {DEFAULT_QUBIT_CAP}, got {n_parties}")
    return pure_channel(Variant.DOMINO, n_parties, {"0" * n_parties: 1.0}, endpoint)


def random_channel(variant: Variant, n_parties: int, endpoint: Endpoint, rng) -> ChannelSpec:
    """Pure channel with normalized complex-Gaussian coefficients over the
    full support set (parity supports for the custom variant too). Draws
    with any |amp| < ``RANDOM_MIN_AMP`` are redrawn so degenerate
    coefficients cannot mask protocol failures."""
    supports = domino_support(n_parties) if variant is Variant.DOMINO else parity_support(n_parties)
    gen = as_rng(rng)
    while True:
        vec = gen.normal(size=len(supports)) + 1j * gen.normal(size=len(supports))
        vec /= np.linalg.norm(vec)
        if float(np.abs(vec).min()) >= RANDOM_MIN_AMP:
            break
    return pure_channel(variant, n_parties, dict(zip(supports, map(complex, vec))), endpoint)


def spec_to_json(spec: ChannelSpec) -> dict:
    return {
        "variant": spec.variant.value,
        "n": spec.n_parties,
        "endpoint": spec.endpoint.value,
        "components": [
            {
                "weight": comp.weight,
                "coeffs": [
                    {"bits": bits, "re": amp.real, "im": amp.imag} for bits, amp in comp.coeffs
                ],
            }
            for comp in spec.components
        ],
    }


def _json_value(value, what: str, string: bool = False):
    """``value``, if it has the JSON type due: a string, or a JSON int or
    float. A JSON true or false, which Python reads as 1 or 0, is no number,
    nor is a string that ``int`` or ``float`` would parse."""
    if not isinstance(value, str if string else (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a {'string' if string else 'number'}, got {value!r}")
    return value


def spec_from_json(data) -> ChannelSpec:
    try:
        variant = Variant(data["variant"])
        endpoint = Endpoint(data["endpoint"])
        n = _json_value(data["n"], "n")
        if isinstance(n, float) and not n.is_integer():
            raise ValueError(f"n must be a whole number, got {n!r}")
        n = int(n)
        comps = tuple(
            make_component(
                _json_value(item["weight"], "weight"),
                [(_json_value(c["bits"], "bits", string=True),
                  complex(_json_value(c["re"], "re"), _json_value(c.get("im", 0.0), "im")))
                 for c in item["coeffs"]],
            )
            for item in data["components"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past float range
        raise ChannelValidationError(f"malformed channel description: {exc}") from exc
    return ChannelSpec(variant, n, endpoint, comps)


def load_channel(path) -> ChannelSpec:
    """Read a channel description from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ChannelValidationError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ChannelValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError:
        raise ChannelValidationError(f"{path}: JSON nested too deeply") from None
    return spec_from_json(data)


def save_channel(spec: ChannelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


_GHZ_RE = re.compile(r"ghz\((\d+)\)\Z")


def resolve_preset(name: str, endpoint: Endpoint | None = None) -> ChannelSpec:
    """Look a channel up by preset name.

    Known names: ``telecloning``, ``telecloning-conc``, ``smolin``,
    ``ghz(n)``. ``endpoint`` supplies the role the caller needs; names with
    a built-in side reject a contradictory endpoint.
    """
    if name == "telecloning":
        return telecloning_channel(endpoint or Endpoint.SENDER_FIRST)
    if name == "telecloning-conc":
        if endpoint is Endpoint.SENDER_FIRST:
            raise ChannelValidationError("preset telecloning-conc is receiver-side")
        return telecloning_channel(Endpoint.RECEIVER_LAST)
    if name == "smolin":
        return smolin_channel(endpoint or Endpoint.RECEIVER_LAST)
    match = _GHZ_RE.fullmatch(name)
    if match:
        if endpoint is None:
            raise ChannelValidationError("preset ghz(n) needs an endpoint")
        return ghz_channel(int(match.group(1)), endpoint)
    raise ChannelValidationError(f"unknown preset '{name}'")
