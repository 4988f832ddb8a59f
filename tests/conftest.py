import pytest

from twoview import gradcheck


@pytest.fixture
def gradcheck_rows(monkeypatch):
    """restrict(keep): run_gradcheck checks only the rows whose name passes keep.

    Every case builder still builds all of its cases, so each kept probe takes
    the same draws from the one generator as in a full run.
    """
    def restrict(keep):
        for builder in [name for name in vars(gradcheck) if name.endswith("_cases")]:
            build = getattr(gradcheck, builder)
            monkeypatch.setattr(gradcheck, builder,
                                lambda rng, build=build: [case for case in build(rng) if keep(case[0])])

    return restrict
