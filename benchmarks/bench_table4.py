"""Paper Table 4: Meta-Chaos data copy across two programs (§5.2).

"Time for the Meta-Chaos data copy for 2 separate programs on IBM SP2, in
msec per iteration" — one regular->irregular copy plus one back, per
time-step, across the Preg x Pirreg grid.
"""

from common import record, check_shape, coupled_two, print_header

PAPER = {
    2: {2: 63, 4: 61, 8: 66},
    4: {2: 55, 4: 33, 8: 36},
    8: {2: 61, 4: 32, 8: 21},
}
GRID = (2, 4, 8)


def run_table4():
    results = {pr: {pi: coupled_two(pr, pi) for pi in GRID} for pr in GRID}
    print_header("Table 4: two-program copy per iteration (rows: Preg, cols: Pirreg)")
    print(f"{'':>8}" + "".join(f"{pi:>16}" for pi in GRID))
    for pr in GRID:
        ours = "".join(
            f"{results[pr][pi].copy_per_iter_ms:>8.0f}/{PAPER[pr][pi]:<7}"
            for pi in GRID
        )
        print(f"{pr:>8}{ours}   (ours/paper)")

    # Shape 1: near-symmetry — copy(preg,pirreg) ~ copy(pirreg,preg)
    # ("the time for the data copy is symmetric").
    for a in GRID:
        for b in GRID:
            if a < b:
                x = results[a][b].copy_per_iter_ms
                y = results[b][a].copy_per_iter_ms
                check_shape(
                    abs(x - y) < 0.5 * max(x, y),
                    f"copy({a},{b})={x:.0f} ~ copy({b},{a})={y:.0f}",
                )
    # Shape 2: limited by the smaller program — balanced grows faster.
    check_shape(
        results[8][8].copy_per_iter_ms < results[2][8].copy_per_iter_ms,
        "copy is limited by whichever program runs on fewer processors",
    )
    check_shape(
        results[2][2].copy_per_iter_ms > results[8][8].copy_per_iter_ms,
        "copy speeds up when both sides grow",
    )
    record("table4", {
        "grid": list(GRID),
        "copy_ms": {
            pr: {pi: results[pr][pi].copy_per_iter_ms for pi in GRID}
            for pr in GRID
        },
        "paper": PAPER,
    })
    return results


if __name__ == "__main__":
    run_table4()
