"""Paper Table 3: Meta-Chaos schedule build across two programs (§5.2).

"Time for Meta-Chaos schedule computation for 2 separate programs on IBM
SP2, in msec" — regular program Preg x irregular program Pirreg, each on
2/4/8 processors, cooperation method.
"""

from common import record, check_shape, coupled_two, print_header

PAPER = {
    2: {2: 1350, 4: 726, 8: 396},
    4: {2: 1377, 4: 738, 8: 403},
    8: {2: 1381, 4: 718, 8: 398},
}
GRID = (2, 4, 8)


def run_table3():
    results = {pr: {pi: coupled_two(pr, pi) for pi in GRID} for pr in GRID}
    print_header("Table 3: two-program schedule build (rows: Preg, cols: Pirreg)")
    print(f"{'':>8}" + "".join(f"{pi:>16}" for pi in GRID))
    for pr in GRID:
        ours = "".join(f"{results[pr][pi].sched_ms:>8.0f}/{PAPER[pr][pi]:<7}" for pi in GRID)
        print(f"{pr:>8}{ours}   (ours/paper)")

    # Shape: time tracks the irregular side, not the regular side.
    for pr in GRID:
        row = [results[pr][pi].sched_ms for pi in GRID]
        check_shape(
            row[0] > 2.0 * row[2],
            f"Preg={pr}: build speeds up ~linearly with Pirreg "
            f"({row[0]:.0f} -> {row[2]:.0f})",
        )
    for pi in GRID:
        col = [results[pr][pi].sched_ms for pr in GRID]
        spread = (max(col) - min(col)) / max(col)
        check_shape(
            spread < 0.35,
            f"Pirreg={pi}: build nearly flat in Preg (spread {spread:.0%})",
        )
    record("table3", {
        "grid": list(GRID),
        "sched_ms": {pr: {pi: results[pr][pi].sched_ms for pi in GRID} for pr in GRID},
        "paper": PAPER,
    })
    return results


if __name__ == "__main__":
    run_table3()
