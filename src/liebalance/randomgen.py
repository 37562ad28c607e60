"""Seeded random block data for the oracle runs and the property tests.

Each generator first draws a block multiset respecting the family's structural
constraints and then reads off its group with ``blocks.spec_for``, so every
draw passes validation by construction.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from . import blocks as bk
from .blocks import Block
from .groups import FAMILIES, Family, GroupSpec


def _split_sig(total: int, rng: random.Random) -> Tuple[int, int]:
    a = rng.randint(0, total)
    return a, total - a


def random_scenario(family: Family, rng: random.Random,
                    cap: int = 12) -> Tuple[GroupSpec, List[Block]]:
    least = FAMILIES[family].min_dim
    if cap < least:
        raise ValueError(f"{family.value} has no group of ambient dimension at most "
                         f"{cap}: its smallest is {least}")
    for _ in range(200):
        try:
            bl = _draw(family, rng, cap)
            return bk.spec_for(family, bl), bl
        except (ValueError, bk.ScenarioError):
            continue
    raise RuntimeError(f"could not draw a valid scenario for {family.value}")


def _draw(family: Family, rng: random.Random, cap: int) -> List[Block]:
    if family == Family.SL_C:
        bl = []
        total = 0
        for _ in range(rng.randint(1, 4)):
            if total >= cap:
                break
            d, r = _one_part(rng, cap - total)
            bl.append(bk.cls(d, r))
            total += d * r
        return bl
    if family in (Family.SL_R, Family.SL_H):
        quat = family == Family.SL_H
        bl = []
        total = 0
        for _ in range(rng.randint(1, 3)):
            if total >= cap - 1:
                break
            if rng.random() < 0.5 and total + 2 <= cap:
                d, r = _one_part(rng, (cap - total) // 2)
                bl.append(bk.conj_pair(d, r))
                total += 2 * d * r
            else:
                d, r = _one_part(rng, cap - total)
                if quat and (d * r) % 2:
                    if 2 * d * r + total <= cap:
                        r *= 2
                    else:
                        continue
                bl.append(bk.real_cls(d, r))
                total += d * r
        return bl
    if family == Family.SU:
        bl = []
        total = 0
        for _ in range(rng.randint(1, 3)):
            room = cap - total
            if room < 1:
                break
            if rng.random() < 0.3 and room >= 2:
                d, r = _one_part(rng, room // 2)
                bl.append(bk.sesq_pair(d, r))
                total += 2 * d * r
            else:
                d = rng.randint(1, min(3, room))
                cplus, cminus = _split_sig(d, rng)
                rplus, rminus = _split_sig(rng.randint(1, max(1, room // d)), rng)
                if rplus + rminus == 0:
                    rplus = 1
                if d * (rplus + rminus) > room:
                    continue
                bl.append(bk.sesq_self(d, (cplus, cminus), (rplus, rminus)))
                total += d * (rplus + rminus)
        return bl
    if family in (Family.SO, Family.SP_R, Family.SP, Family.SO_STAR):
        return _draw_orth(family, rng, cap)
    if family in (Family.SO_C, Family.SP_C):
        bl = []
        total = 0
        for _ in range(rng.randint(1, 2)):
            room = (cap - total) // 2
            if room < 1:
                break
            d, r = _one_part(rng, room)
            bl.append(bk.dual_pair(d, r))
            total += 2 * d * r
        if rng.random() < 0.6 and total < cap:
            d0 = rng.randint(1, cap - total)
            if family == Family.SP_C and d0 % 2:
                d0 = d0 + 1 if total + d0 + 1 <= cap else d0 - 1
            if d0 >= 1:
                bl.append(bk.zero_block(d0))
                total += d0
        return bl
    raise AssertionError(family)


def _draw_orth(family: Family, rng: random.Random, cap: int) -> List[Block]:
    quat = family in (Family.SP, Family.SO_STAR)
    skew_s = family in (Family.SP_R, Family.SO_STAR)
    bl = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        room = cap - total
        if room < 2:
            break
        kind = rng.choice(["imag", "imag", "imag", "split", "quad"])
        if kind == "imag":
            d, r = _one_part(rng, room // 2)
            sig = _split_sig(d * r, rng)
            bl.append(bk.imag_pair(d, r, sig))
            total += 2 * d * r
        elif kind == "split" and room >= (4 if quat else 2):
            d, r = _one_part(rng, room // 2)
            if quat and (d * r) % 2:
                d *= 2
                if 2 * d * r > room:
                    continue
            bl.append(bk.split_pair(d, r))
            total += 2 * d * r
        elif kind == "quad" and room >= 4:
            d, r = _one_part(rng, room // 4)
            bl.append(bk.quad_pair(d, r))
            total += 4 * d * r
    room = cap - total
    if rng.random() < 0.7 and room >= 1:
        d0 = rng.randint(1, room)
        if (quat or family in (Family.SP_R,)) and d0 % 2:
            d0 -= 1
        if d0 >= 1:
            if skew_s:
                sig = (d0 // 2, d0 // 2)
                if d0 % 2:
                    d0 -= 1
                    sig = (d0 // 2, d0 // 2)
            elif family == Family.SP:
                half = d0 // 2
                a = 2 * rng.randint(0, half)
                sig = (a, d0 - a)
            else:
                sig = _split_sig(d0, rng)
            if d0 >= 1:
                bl.append(bk.zero_block(d0, sig))
                total += d0
    return bl


def _one_part(rng: random.Random, room: int) -> Tuple[int, int]:
    if room < 1:
        raise ValueError("no room")
    d = rng.randint(1, min(3, room))
    r = rng.randint(1, max(1, min(2, room // d)))
    return d, r


ALL_FAMILIES = [Family.SL_R, Family.SL_C, Family.SL_H, Family.SU, Family.SO,
                Family.SP_R, Family.SP, Family.SO_STAR, Family.SO_C, Family.SP_C]
