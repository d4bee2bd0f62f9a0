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
    # integrator forms, in its layout; rk4_state is the tool's own copy of
    # the RK4 formula, so this also pins the integrator's bits on every
    # target: at 64 samples a one-ulp change in an increment shows in some
    # sum, and a tenth of the unit time passes the level sets' residual test
    m, steps = 64, 10
    for spec in step_cost.TARGETS:
        man = make_manifold(spec)
        x, v = step_cost.laid_out(manifold, man, m)
        x_new, v_new = step_cost.rk4_state(man, x, v, 1.0 / steps)
        x_end, v_end, ok = man.post_step(x, x_new, v_new)
        xs, vs = integrate_spray(man, *step_cost.inputs(man, m), steps, record_every=1)
        assert ok, spec
        assert np.array_equal(x_end, xs[1]) and np.array_equal(v_end, vs[1]), spec
        for a in (x, v, x_new, v_new, x_end, v_end):
            assert a.flags.f_contiguous and not a.flags.c_contiguous, spec


def test_two_trees_print_steps_split_and_ratio(capsys):
    assert step_cost.main([str(ROOT), str(ROOT), "--pairs", "2", "--targets", "halfplane"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.startswith("halfplane")]
    # rows at both sizes carry the split into accel x4, post_step and the rest
    assert [(r[1], r[2], len(r)) for r in rows] == [
        ("4", "A", 8), ("4", "B", 8), ("2048", "A", 8), ("2048", "B", 8)]
    assert sum("A/B" in line for line in lines) == 2
