import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from specsync import (
    CoefficientTrajectory,
    OscillatorSystem,
    Trajectory,
    WeightedGraph,
    VertexPartition,
    spectral_basis,
    integrate_vertex,
)
from specsync import fileio

from conftest import decompose_trajectory, random_connected_graph


class TestGraphJson:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        g = random_connected_graph(rng)
        path = tmp_path / "graph.json"
        fileio.save_graph(g, path)
        back = fileio.load_graph(path)
        assert back == g

    def test_format_shape(self, tmp_path):
        g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 2.5)])
        path = tmp_path / "graph.json"
        fileio.save_graph(g, path)
        payload = json.loads(path.read_text())
        assert payload == {"n": 3, "edges": [[0, 1, 0.1], [1, 2, 2.5]]}


class TestPartitionJson:
    def test_round_trip(self, tmp_path):
        p = VertexPartition([0, 1, 1, 2, 0])
        path = tmp_path / "partition.json"
        fileio.save_partition(p, path)
        assert fileio.load_partition(path) == p

    def test_format_shape(self, tmp_path):
        path = tmp_path / "partition.json"
        fileio.save_partition(VertexPartition([0, 0, 1]), path)
        assert json.loads(path.read_text()) == {"assignment": [0, 0, 1]}


class TestTrajectoryCsv:
    def test_phase_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(71)
        states = rng.normal(size=(7, 4))
        traj = Trajectory(t0=0.25, dt=0.125, states=states)
        path = tmp_path / "traj.csv"
        fileio.write_phase_csv(traj, path)
        times, values = fileio.read_timeseries_csv(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(values, states)

    def test_header_names(self, tmp_path):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        traj = Trajectory(t0=0.0, dt=0.1, states=np.zeros((2, 2)))
        phase_path = tmp_path / "phases.csv"
        fileio.write_phase_csv(traj, phase_path)
        assert phase_path.read_text().splitlines()[0] == "t,theta_0,theta_1"
        coeff_path = tmp_path / "coeffs.csv"
        fileio.write_coefficient_csv(decompose_trajectory(traj, spectral_basis(g)), coeff_path)
        assert coeff_path.read_text().splitlines()[0] == "t,alpha_0,alpha_1"

    def test_batched_trajectory_rejected_before_writing(self, tmp_path, path3):
        system = OscillatorSystem(graph=path3, omega=np.zeros(3), sigma=1.0)
        batch = integrate_vertex(system, np.zeros((2, 3)), 0.1, 4)
        coeffs = CoefficientTrajectory(batch.t0, batch.dt, batch.states)
        for write, traj in ((fileio.write_phase_csv, batch),
                            (fileio.write_coefficient_csv, coeffs)):
            path = tmp_path / "batch.csv"
            with pytest.raises(ValueError, match="one trajectory"):
                write(traj, path)
            assert not path.exists()


class TestStreamedTrajectoryCsv:
    """Trajectory CSVs are written block by block through _format_cells;
    every byte must match numpy's own "%.17g" rendering of the same table."""

    SPECIALS = [-0.0, 5e-324, 1e300, float("nan"), float("inf")]

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("count", [1, 2, 1001])
    def test_bytes_match_savetxt(self, tmp_path, n, count):
        rng = np.random.default_rng(count)
        states = rng.normal(size=(count, n)) * 10.0 ** rng.integers(-320, 300, size=(count, n))
        k = min(len(self.SPECIALS), states.size)
        states.flat[:k] = self.SPECIALS[:k]
        states.flat[-k:] = self.SPECIALS[-k:]
        traj = Trajectory(t0=-0.3, dt=1.0 / 3.0, states=states)
        streamed, reference = tmp_path / "streamed.csv", tmp_path / "reference.csv"
        fileio.write_phase_csv(traj, streamed)
        header = ",".join(["t", *(f"theta_{i}" for i in range(n))])
        np.savetxt(reference, np.column_stack((traj.times, states)), fmt="%.17g",
                   delimiter=",", header=header, comments="")
        assert streamed.read_bytes() == reference.read_bytes()

    def test_peak_memory_is_bounded(self, tmp_path):
        # about 10 MB of CSV; a writer holding the whole table peaks near 30 MB
        states = np.random.default_rng(72).normal(size=(5001, 100))
        traj = Trajectory(t0=0.0, dt=0.01, states=states)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            fileio.write_phase_csv(traj, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 9e6
        assert peak < 8e6


def kernel_lines(values) -> list[str]:
    """Each value through _format_cells as a one-column block, in blocks of
    the size the trajectory writer uses."""
    values = np.asarray(values, dtype=float).ravel()
    step = fileio._BLOCK_CELLS
    text = "".join(fileio._format_cells(values[i:i + step, None])
                   for i in range(0, values.size, step))
    return text.split("\n")[:-1]


def percent_lines(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


class TestFormatKernel:
    """_format_cells must make byte for byte the text of '%.17g' % v."""

    SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                float("nan"), float("inf"), float("-inf"), 1e-270, 1e270]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(73).integers(0, 2**64, size=10**6, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), self.SPECIALS])
        # subnormals, NaN and both infinities are among the random patterns too
        assert np.isnan(values).sum() > 100 and (np.abs(values) < 2.2250738585072014e-308).sum() > 100
        assert kernel_lines(values) == percent_lines(values)

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for k in range(-330, 309):
            for direction in (0.0, math.inf):
                x = float(f"1e{k}")
                for _ in range(4):
                    values += [x, -x]
                    x = math.nextafter(x, direction)
        assert kernel_lines(values) == percent_lines(values)

    def test_exact_ties(self):
        # m / 2^(17 - k) with m odd and the value in [10^k, 10^(k+1)) has
        # exactly 18 significant digits, the last a 5: an exact tie at 17,
        # which '%' rounds half to even.
        rng = np.random.default_rng(74)
        values = []
        for k in range(-8, 15):
            j = 17 - k
            low = math.ceil(Fraction(10) ** k * 2**j)
            high = math.ceil(Fraction(10) ** (k + 1) * 2**j)
            m = rng.integers(low, high, size=300) | 1
            values += [int(v) / 2**j for v in m if v < high]
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        values += [1 + 2.0**-17, -(1 + 2.0**-17)]
        assert kernel_lines(values) == percent_lines(values)

    def test_decade_edges(self):
        values = [float(10**16 + i) for i in range(-64, 65)]
        values += [float(10**17 + i) for i in range(-1024, 1025, 8)]
        # doubles just below a power of ten that '%' rounds up to it
        up = [x for x in (float(f"1e{k}") for k in range(-300, 301))
              if 0 < Fraction(10) ** round(math.log10(x)) - Fraction(x)
              < Fraction(10) ** (round(math.log10(x)) - 17) / 2]
        assert any(1e-270 <= x <= 1e270 for x in up)
        values += up + [-x for x in values]
        assert kernel_lines(values) == percent_lines(values)

    def test_floats_property(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None)
        @given(st.integers(1, 6).flatmap(
            lambda cols: st.lists(st.floats(), min_size=cols, max_size=8 * cols)
            .map(lambda v: np.array(v[:len(v) // cols * cols]).reshape(-1, cols))))
        def check(block):
            want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())
            assert fileio._format_cells(block) == want

        check()

    def test_power_table_is_exact(self):
        powers = fileio._format_tables()[0]
        for k, (hi, hi_h, hi_l, lo) in zip(range(-fileio._K_MAX, fileio._K_MAX + 1), powers.tolist()):
            exact = Fraction(10) ** (16 - k)
            assert abs(exact - Fraction(hi)) <= Fraction(math.ulp(hi)) / 2
            assert abs(exact - Fraction(hi) - Fraction(lo)) <= Fraction(math.ulp(lo)) / 2
            assert hi_h + hi_l == hi

    def test_tables_are_built_on_first_use(self):
        code = "import specsync.fileio as f; print(f._format_tables.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(fileio.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"


class TestWriteTable:
    def test_exact_text(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(0.1, -0.0, 1e300, 5e-324, 3, True, "1 2")]
        fileio.write_table(path, ["a", "b", "c", "d", "e", "f", "g"], rows)
        assert path.read_text() == (
            "a,b,c,d,e,f,g\n"
            "0.10000000000000001,-0,1.0000000000000001e+300,4.9406564584124654e-324,3,True,1 2\n"
        )

    def test_numpy_floats_match_python_floats(self, tmp_path):
        values = [0.1, -0.0, 0.0, 1e300, 5e-324, -2.5e-7, 1.0 / 3.0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_table(a, ["x"] * len(values), [values])
        fileio.write_table(b, ["x"] * len(values), [np.array(values)])
        assert a.read_bytes() == b.read_bytes()

    def test_rows_may_be_a_generator(self, tmp_path):
        path = tmp_path / "gen.csv"
        fileio.write_table(path, ["i", "sq"], ((i, float(i * i)) for i in range(3)))
        assert path.read_text() == "i,sq\n0,0\n1,1\n2,4\n"


class TestVectorSpec:
    def test_inline_json(self):
        assert np.array_equal(fileio.load_vector("[1, 2.5, -3]", 3), [1.0, 2.5, -3.0])

    def test_file_path(self, tmp_path):
        path = tmp_path / "omega.json"
        path.write_text("[0.5, -0.5]")
        assert np.array_equal(fileio.load_vector(str(path), 2), [0.5, -0.5])

    def test_length_check(self):
        with pytest.raises(ValueError, match="entries"):
            fileio.load_vector("[1, 2]", 3)
