import json
import tracemalloc

import numpy as np
import pytest

from specsync import (
    CoefficientTrajectory,
    OscillatorSystem,
    Trajectory,
    WeightedGraph,
    VertexPartition,
    spectral_basis,
    decompose_trajectory,
    integrate_vertex,
)
from specsync import fileio

from conftest import random_connected_graph


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
        coeffs = CoefficientTrajectory(batch.t0, batch.dt, batch.states, spectral_basis(path3))
        for write, traj in ((fileio.write_phase_csv, batch),
                            (fileio.write_coefficient_csv, coeffs)):
            path = tmp_path / "batch.csv"
            with pytest.raises(ValueError, match="one trajectory"):
                write(traj, path)
            assert not path.exists()


class TestStreamedTrajectoryCsv:
    """Trajectory CSVs are written line by line through write_table; every
    byte must match numpy's own "%.17g" rendering of the same table."""

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
