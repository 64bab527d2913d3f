"""An oracle for the pipeline benchmark, written apart from the program.

Nothing here calls into ``repro``'s hashing, sketch or estimator code.
The checks take plain Python values: the hash coefficients
(``SketchSpec.hashes()`` exposes them), the counter arrays as nested
lists (``ndarray.tolist()``), and the estimates as numbers.  All
arithmetic uses Python ints, so a bug in the program's vectorised
uint64 kernels cannot hide behind the same bug here.

Three checks:

* :func:`sketch_counters` recomputes one sketch's ``(levels, s, 2)``
  counters from a dict of net frequencies.  The first level is Horner's
  rule over ``2**61 - 1`` and the lowest set bit, with a zero hash
  parked at level 63.  The second level is ``parity(mask & e) ^ flip``.
  :func:`check_counters` compares them bit for bit.
* :func:`union_estimate` redoes the paper's section 3.3 level scan and
  inversion from the counters.
* :func:`check_witness` checks that a witness estimate is
  ``union_estimate * witnesses / valid`` with
  ``0 <= witnesses <= valid <= r``.
"""

from __future__ import annotations

import math
import random

P = (1 << 61) - 1
NUM_LEVELS = 64


class OracleMismatch(AssertionError):
    """An output of the program disagrees with the oracle."""


def lsb(value: int) -> int:
    """Lowest set bit of ``value``; 0 maps to the top level."""
    if value == 0:
        return NUM_LEVELS - 1
    return (value & -value).bit_length() - 1


def first_level(coefficients, element: int) -> int:
    """``LSB(h(e))`` with ``h`` the polynomial, highest degree first."""
    acc = 0
    for coefficient in coefficients:
        acc = (acc * element + coefficient) % P
    return lsb(acc)


def sketch_counters(coefficients, masks, flips, frequencies: dict) -> list:
    """Counters ``[level][j][bit]`` of one sketch over net frequencies."""
    s = len(masks)
    counters = [[[0, 0] for _ in range(s)] for _ in range(NUM_LEVELS)]
    pairs = list(zip(masks, flips))
    for element, frequency in frequencies.items():
        if frequency == 0:
            continue
        row = counters[first_level(coefficients, element)]
        for j, (mask, flip) in enumerate(pairs):
            row[j][((mask & element).bit_count() & 1) ^ flip] += frequency
    return counters


def sample_indices(num_sketches: int, count: int, seed) -> list[int]:
    """A seeded sample of sketch indices (sorted, without repeats)."""
    rng = random.Random(repr(seed))
    return sorted(rng.sample(range(num_sketches), min(count, num_sketches)))


def check_counters(hashes, counters, frequencies: dict, indices, label: str) -> int:
    """Compare the program's counters with the oracle's on ``indices``.

    ``hashes`` is the spec's per-index hash tuple, ``counters`` the
    family's ``(r, levels, s, 2)`` array (anything with ``tolist``).
    Returns how many sketches were compared; raises
    :class:`OracleMismatch` naming the first differing cell.
    """
    for index in indices:
        hashed = hashes[index]
        expected = sketch_counters(
            hashed.first_level.coefficients,
            hashed.second_level.masks,
            hashed.second_level.flips,
            frequencies,
        )
        actual = counters[index].tolist()
        if actual != expected:
            for level in range(NUM_LEVELS):
                if actual[level] != expected[level]:
                    raise OracleMismatch(
                        f"{label}: sketch {index} level {level} counters "
                        f"{actual[level]} != oracle {expected[level]}"
                    )
    return len(indices)


def level_totals(counters) -> list[list[int]]:
    """Per-sketch, per-level bucket totals ``X[l,0,0] + X[l,0,1]``."""
    return [
        [level[0][0] + level[0][1] for level in sketch]
        for sketch in counters.tolist()
    ]


def union_estimate(totals_per_stream: list, epsilon: float) -> dict:
    """The section 3.3 estimate from per-stream level totals.

    A bucket of the union is non-empty when the streams' totals sum
    above zero.  The scan stops at the first level where at most
    ``(1 + epsilon) * r / 8`` sketches are non-empty; the estimate
    inverts ``p = 1 - (1 - 1/R)**u`` at that level, ``R = 2**(level+1)``.
    A scan that never stops uses the last level; a level where every
    sketch is non-empty is evaluated at ``(r - 1/2) / r``.
    """
    r = len(totals_per_stream[0])
    counts = []
    for level in range(NUM_LEVELS):
        non_empty = 0
        for k in range(r):
            if sum(totals[k][level] for totals in totals_per_stream) > 0:
                non_empty += 1
        counts.append(non_empty)
    threshold = (1.0 + epsilon) * r / 8.0
    level = next(
        (i for i, count in enumerate(counts) if count <= threshold),
        NUM_LEVELS - 1,
    )
    count = counts[level]
    if count == 0:
        return {"value": 0.0, "level": level}
    fraction = count / r
    if count == r:
        fraction = (r - 0.5) / r
    value = math.log1p(-fraction) / math.log1p(-1.0 / float(1 << (level + 1)))
    return {"value": value, "level": level}


def check_union(answer, totals_per_stream: list, epsilon: float, label: str) -> None:
    """An answered union estimate must equal the oracle's recomputation."""
    check_estimate(answer, union_estimate(totals_per_stream, epsilon), label)


def check_estimate(answer, expected: dict, label: str) -> None:
    """An answered union estimate must equal ``expected``, a result of
    :func:`union_estimate`."""
    if answer.level != expected["level"] or not math.isclose(
        answer.value, expected["value"], rel_tol=1e-12, abs_tol=1e-12
    ):
        raise OracleMismatch(
            f"{label}: union estimate {answer.value!r} at level "
            f"{answer.level} != oracle {expected['value']!r} at level "
            f"{expected['level']}"
        )


def check_witness(answer, max_valid: int, label: str) -> None:
    """The witness identity and bounds of one expression estimate."""
    valid, witnesses = answer.num_valid, answer.num_witnesses
    if not (0 <= witnesses <= valid <= max_valid):
        raise OracleMismatch(
            f"{label}: witness counts out of range "
            f"(witnesses={witnesses}, valid={valid}, r={max_valid})"
        )
    if valid == 0:
        expected = 0.0
    else:
        expected = answer.union_estimate * witnesses / valid
    if not math.isclose(answer.value, expected, rel_tol=1e-12, abs_tol=1e-12):
        raise OracleMismatch(
            f"{label}: estimate {answer.value!r} != union "
            f"{answer.union_estimate!r} * {witnesses} / {valid}"
        )
