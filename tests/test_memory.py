"""Peak memory of the 2^n-sized steps, measured with tracemalloc.

numpy reports its buffers to tracemalloc, so the peaks are deterministic
and need no resident-set reading.  The bounds are set at m = 9 (n = 18,
tables of 2^18 entries): int32 index tables, a Walsh transform on its
one fresh input array, and spectrum files written block by block.
"""

import tracemalloc

import numpy as np

from nihobent.boolfun import table_to_hex
from nihobent.cli import main
from nihobent.gf2 import FieldTower

MB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes allocated by fn() and alive at once, above the starting point."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_build_peak_at_m9():
    tower = FieldTower(9)  # fresh, so the tables are built inside the measurement
    assert traced_peak(lambda: tower.tables) <= 8 * MB


def test_walsh_csv_peak_at_m9(tmp_path, capsys):
    bits = np.random.default_rng(9).integers(0, 2, 1 << 18, dtype=np.uint8)
    table = tmp_path / "random_m9.tt.hex"
    table.write_text(table_to_hex(bits) + "\n")
    argv = ["walsh", str(table), "--format", "csv", "--out", str(tmp_path)]
    assert main(argv) == 0  # warm-up: the tower, its tables and the Walsh index permutation
    capsys.readouterr()
    assert traced_peak(lambda: main(argv)) <= 7 * MB
    assert capsys.readouterr().out
