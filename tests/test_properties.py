"""Property test: on random time-reversal symmetric models the pipeline
either certifies its frame or refuses with a coded error."""
from hypothesis import example, given, settings, strategies as st

from blochframe.errors import BlochFrameError
from blochframe.pipeline import RunConfig, run_construct


@st.composite
def random_trs_runs(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, 4))
    params = {
        "d": d,
        "n": n,
        "m": draw(st.integers(1, n - 1)),
        "seed": draw(st.integers(0, 2**16)),
        "amplitude": draw(st.floats(0.05, 0.9)),
    }
    grid_n = 2 if d == 3 else draw(st.sampled_from([2, 4]))
    return RunConfig(model="random-trs", params=params, grid_n=grid_n)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(RunConfig(model="random-trs", params={"d": 2, "n": 4, "m": 3, "seed": 1}, grid_n=4))
@given(random_trs_runs())
def test_random_trs_certifies_or_refuses_with_a_coded_error(config):
    try:
        manifest = run_construct(config)["manifest"]
    except BlochFrameError:
        return
    assert max(manifest["final_residuals"].values()) <= config.tol
    assert manifest["extension_mismatch"] <= 1e-10
