import importlib.util
from pathlib import Path

import numpy as np

from mapgeom import make_manifold, manifold
from mapgeom.manifold import integrate_spray

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_cost", ROOT / "tools" / "step_cost.py")
step_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_cost)


def test_rk4_state_is_the_integrators_state_before_post_step():
    # the tool times post_step on this state, so it must be the one the
    # integrator forms, in its layout; on a chart post_step keeps it as it is
    man = make_manifold("halfplane")
    x, v = step_cost.laid_out(manifold, man, 4)
    x_new, v_new = step_cost.rk4_state(man, x, v, 1.0)
    x_end, v_end = integrate_spray(man, *step_cost.inputs(man, 4), 1)
    assert np.array_equal(x_new, x_end) and np.array_equal(v_new, v_end)
    for a in (x, v, x_new, v_new, x_end, v_end):
        assert a.flags.f_contiguous and not a.flags.c_contiguous


def test_two_trees_print_steps_split_and_ratio(capsys):
    assert step_cost.main([str(ROOT), str(ROOT), "--pairs", "2", "--targets", "halfplane"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.startswith("halfplane")]
    # m = 4 rows carry the split into accel x4, post_step and the rest
    assert [(r[1], r[2], len(r)) for r in rows] == [
        ("4", "A", 8), ("4", "B", 8), ("2048", "A", 5), ("2048", "B", 5)]
    assert sum("A/B" in line for line in lines) == 2
