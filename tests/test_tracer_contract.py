"""The benchmark tracer (``bench/tracer.py``) finds every function it wraps.

The tracer wraps module-level names of ``wigprop``; a rename or a step
that no longer passes through ``step_full``, ``step_first_order`` or
``step_separable`` as a module global would silently drop its spans.  The
check runs in a subprocess, so the rebinding cannot leak into other tests.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""\
    import json, sys, tempfile
    sys.dont_write_bytecode = True
    sys.path[:0] = [{src!r}, {bench!r}]
    import numpy as np
    import wigprop.cli
    from tracer import Tracer
    from wigprop import cli, make_grid, spectral
    from wigprop.phasespace import PhaseSpaceGridND, WignerField
    from wigprop.potentials import GaussianWell, SeparableSum

    tracer = Tracer()
    tracer.install("wigprop")
    with tempfile.TemporaryDirectory() as outdir:
        cli.run_scenario(cli.parse_scenario_text({scenario!r}), outdir)
    axis = make_grid(-6, 6, 8, -6, 6, 8)
    grid = PhaseSpaceGridND((axis, axis))
    field = WignerField(grid=grid, values=np.ones(grid.shape()))
    well = GaussianWell()
    cfg = spectral.SpectralStepConfig(dt=0.1)
    for k in range(2):
        field = spectral.step_separable(field, SeparableSum((well, well)), k * 0.1, cfg)
    summary = tracer.summary()
    print(json.dumps({{"missing": summary["missing"],
                      "spans": {{name: span["calls"]
                                for name, span in summary["spans"].items()}}}}))
    """)

SCENARIO = """\
[grid]
x_min = -8
x_max = 8
nx = 64
p_min = -4
p_max = 4
np = 64

[potential]
potential = gaussian_well depth=1.0 sigma=3.0

[initial]
state = oracle
amplitudes = 1 1
n_max = 8

[run]
method = spectral-full
t0 = 0
t1 = 0.5
nsteps = 5
checkpoints = 0.5
slices = 0
"""


def test_tracer_wraps_every_target_and_counts_each_step():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                           scenario=SCENARIO)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["missing"] == []
    spans = result["spans"]
    # five 1-d steps of the scenario and two separable steps
    assert spans["spectral.step"] == 7
    # the 1-d steps drift and kick through the traced half-spectrum
    # sub-steps; the separable steps through matrices, which have no span
    assert spans["spectral.drift"] == 5
    assert spans["spectral.kick_apply"] == 5
