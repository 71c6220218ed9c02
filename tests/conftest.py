import os
import subprocess
import sys

import pytest

from kurihara.curve import CurveData, load_curve
from kurihara.exactmath import AbelianGroup
from kurihara.modsym import build_space, extract_eigensymbol


@pytest.fixture(scope="session")
def e11():
    return CurveData(
        0, -1, 1, -10, -20, conductor=11, tamagawa_product=5,
        label="11a1", mod_p_surjective=(7,),
    ).validate()


@pytest.fixture(scope="session")
def e37():
    return CurveData(
        0, 0, 1, -1, 0, conductor=37, tamagawa_product=1,
        label="37a1", mod_p_surjective=(5,),
    ).validate()


@pytest.fixture(scope="session")
def space11():
    return build_space(11)


@pytest.fixture(scope="session")
def space37():
    return build_space(37)


@pytest.fixture(scope="session")
def sym11(space11, e11):
    return extract_eigensymbol(space11, e11)


@pytest.fixture(scope="session")
def sym37(space37, e37):
    return extract_eigensymbol(space37, e37)


@pytest.fixture(scope="session")
def sym389():
    E = load_curve(os.path.join(os.path.dirname(__file__), "..", "curves", "389a1.json"))
    return extract_eigensymbol(build_space(389), E)


def trivial_runs(group):
    """`group.runs` under the map to the trivial group."""
    return group.runs(AbelianGroup(()), [()] * len(group.orders))


def residues(group):
    """The residue a mod n of each element of the UnitGroup (Z/n)^*, in element order."""
    return [a for run, _ in trivial_runs(group) for a in run]


def residue_items(element):
    """(a, c) per unit a mod n of an element over (Z/n)^*, zeros included."""
    group = element.group
    return zip(residues(group), map(element.coefficient, group.elements()))


def _run_script(script, *flags, timeout=300):
    """Run a script in a fresh interpreter with the package importable.

    A script still running after `timeout` seconds is killed and
    subprocess.TimeoutExpired raised, so a hang fails the calling test.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture
def run_python():
    """`run(script, timeout=...)` in a fresh interpreter."""
    return _run_script


@pytest.fixture
def run_python_O():
    """Run a script in a fresh `python -O` with the package importable."""
    return lambda script: _run_script(script, "-O")
