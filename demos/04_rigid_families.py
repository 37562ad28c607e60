"""The two rigid families, and why everything else is flexible.

Every family of classical simple real Lie groups short-circuits to
"flexible" for a structural reason -- except SU(p,q) and SO*(2m), where the
classification runs through the full pipeline and the unbalanced
configurations are exactly the split-unitary maximal data (p != q) and the
odd SO*(2m) shape. Small exhaustive sweeps reproduce this here.
"""

from liebalance import blocks, groups
from liebalance.classify import classify
from liebalance.roots import root_system
from liebalance.sweep import run_sweep
from liebalance.groups import Family
from liebalance.toledo import Decoration, Status, propagate_constraints


def run(spec, data, decos=()):
    # each stage takes the one before it: blocks, root system, statuses, verdict
    verdict = classify(propagate_constraints(root_system(spec, data), list(decos)))
    out = verdict.outcome + (f" ({verdict.descriptor})" if verdict.descriptor else "")
    return out + f"   [{verdict.reason}]"


print("Structural short circuits")
print("-------------------------")
print("SL(4,R), conjugate pair:     ",
      run(groups.sl_r(4), [blocks.conj_pair(2, 1)]))
print("Sp(4,R), decorated maximal:  ",
      run(groups.sp_r(4), [blocks.imag_pair(1, 1, (1, 0)),
                           blocks.zero_block(2, (1, 1))],
          [Decoration("0", Status.MAXIMAL_POSITIVE)]))
print("SO(3,3) with a free weight:  ",
      run(groups.so(3, 3), [blocks.imag_pair(1, 1, (1, 0)),
                            blocks.split_pair(1, 1),
                            blocks.zero_block(2, (0, 2))]))
print("SU(3,0), compact:            ",
      run(groups.su(3, 0), [blocks.sesq_self(3, (3, 0), (1, 0))]))
print()

print("The split-unitary family inside SU(2,3)")
print("---------------------------------------")
su_blocks = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
             blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
print("E maximal positive:  ", run(groups.su(2, 3), su_blocks,
                                   [Decoration("E:il", Status.MAXIMAL_POSITIVE)]))
print("E not maximal:       ", run(groups.su(2, 3), su_blocks,
                                   [Decoration("E:il", Status.NON_MAXIMAL)]))
print("E undecided:         ", run(groups.su(2, 3), su_blocks))
print()

print("The odd SO*(2m) shape")
print("---------------------")
so6 = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(4, (2, 2))]
print("SO*(6), zero block maximal:  ",
      run(groups.so_star(6), so6, [Decoration("0", Status.MAXIMAL_POSITIVE)]))
so8 = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(6, (3, 3))]
print("SO*(8), same datum:          ",
      run(groups.so_star(8), so8, [Decoration("0", Status.MAXIMAL_POSITIVE)]))
fine = [blocks.imag_pair(1, 1, (1, 0), label="a"),
        blocks.imag_pair(2, 1, (1, 1), label="b")]
print("SO*(6), finer presentation:  ",
      run(groups.so_star(6), fine, [Decoration("b:+l", Status.MAXIMAL_POSITIVE)]))
print()

print("Exhaustive sweeps at small size")
print("-------------------------------")
for fam, bound in ((Family.SU, 5), (Family.SO, 6), (Family.SO_STAR, 8)):
    res = run_sweep(fam, bound)
    rigid = sorted({(r["group"], r["descriptor"]) for r in res.rigid})
    status = "matches the expected rigid list" if res.ok else "MISMATCH"
    print(f"{fam.value:8} bound {bound}: {res.runs} decorated runs; "
          f"rigid: {rigid or 'none'}; {status}")
