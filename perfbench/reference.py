"""Write the stored reference series for the ``marked_search`` workload.

The series is computed here without sqrw, from the layer reduction of the
search walk (Shenvi, Kempe and Whaley, PRA 67, 052307).  Translation
covariance moves any marked vertex to 0...0.  The uniform start and the
marked coin are then invariant under coordinate permutations, so the walk
stays a layer state: ``up[w]`` / ``down[w]`` are the amplitudes on each edge
leaving a weight-w vertex upward / downward.  Every layer scatters with the
diffusion coefficients r = 2/d - 1, t = 2/d except layer 0, the marked
vertex, which reflects with r = -1.  Success ("out") is d |up[0]|^2.

Run from the repository root to regenerate ``perfbench/search_d14.csv``:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

DIM = 14
STEPS = 300
PATH = Path(__file__).resolve().parent / f"search_d{DIM}.csv"


def search_series(d: int, steps: int) -> np.ndarray:
    r, t = 2.0 / d - 1.0, 2.0 / d
    w = np.arange(d + 1)
    amp = 1.0 / math.sqrt(d * 2.0**d)
    up = np.where(w < d, amp, 0.0)
    down = np.where(w > 0, amp, 0.0)
    series = np.empty(steps + 1)
    series[0] = d * up[0] ** 2
    for n in range(1, steps + 1):
        up_prev = np.concatenate(([0.0], up[:d]))
        down_next = np.concatenate((down[1:], [0.0]))
        new_up = t * w * up_prev + (t * (d - w - 1) + r) * down_next
        new_down = t * (d - w) * down_next + (t * (w - 1) + r) * up_prev
        new_up[0] = -down[1]
        new_up[d] = 0.0
        new_down[0] = 0.0
        up, down = new_up, new_down
        series[n] = d * up[0] ** 2
    return series


def main() -> None:
    series = search_series(DIM, STEPS)
    with open(PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,success_probability\n")
        for n, p in enumerate(series):
            fh.write(f"{n},{format(float(p), '.17g')}\n")
    peak = int(np.argmax(series))
    print(f"wrote {PATH.name}: peak_step={peak} peak_probability={series[peak]:.17g}")


if __name__ == "__main__":
    main()
