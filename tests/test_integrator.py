"""Fixed-step integrator and crossing-detector tests."""

import dataclasses
import hashlib
import io
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twistlab
from twistlab import integrator
from twistlab.dynamics import Gains
from twistlab.integrator import (DivergenceError, IntegrationConfig,
                                 Trajectory, detect_crossings, integrate)
from twistlab.plant import MotorModel, _motor_loop
from twistlab.signals import FrictionCoggingModel, MotionProfile

from _fields import (loop_field, motor_field, repr_csv, rk4_solve, sampled_motor_loop,
                     solve_trajectory)

PROPERTY = settings(derandomize=True, deadline=None)


def _make_traj(t, x1):
    zeros = np.zeros_like(t)
    return Trajectory(t=np.asarray(t, float), x1=np.asarray(x1, float),
                      x2=zeros.copy(), u=zeros.copy(), d=zeros.copy(), q=zeros.copy(),
                      dt=float(t[1] - t[0]))


def _reference_rk4(field, x0, t0, dt, n_steps):
    """Generic tuple-loop RK4 for any state size: the reference rk4_solve must match bit for bit."""
    x = tuple(float(v) for v in x0)
    m = len(x)
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, m))
    times[0] = t0
    states[0] = x
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        t = t0 + k * dt
        a = field(t, x)
        b = field(t + half, tuple(x[i] + half * a[i] for i in range(m)))
        c = field(t + half, tuple(x[i] + half * b[i] for i in range(m)))
        e = field(t + dt, tuple(x[i] + dt * c[i] for i in range(m)))
        x = tuple(x[i] + sixth * (a[i] + 2.0 * (b[i] + c[i]) + e[i]) for i in range(m))
        for v in x:
            if not math.isfinite(v):
                raise DivergenceError(t + dt)
        times[k + 1] = t0 + (k + 1) * dt
        states[k + 1] = x
    return times, states


def _assert_matches_reference(field, *args):
    times, states = rk4_solve(field, *args)
    ref_times, ref_states = _reference_rk4(field, *args)
    assert times.tobytes() == ref_times.tobytes()
    assert states.shape == ref_states.shape
    assert states.tobytes() == ref_states.tobytes()


def _reference_crossings(traj, layer_width=0.0):
    """Sample-by-sample sign scan of ``x1`` that detect_crossings must match exactly."""
    values = traj.x1
    t = traj.t
    raw = []
    last_sign = 0.0
    last_idx = 0
    for i, v in enumerate(values):
        s = 1.0 if v > 0.0 else (-1.0 if v < 0.0 else 0.0)
        if s == 0.0:
            continue
        if last_sign != 0.0 and s != last_sign:
            a, b = last_idx, i
            frac = values[a] / (values[a] - values[b])
            raw.append((float(t[a] + frac * (t[b] - t[a])), int(s), a, b))
        last_sign = s
        last_idx = i
    if not raw or layer_width <= 0.0:
        return [(tc, dirn) for tc, dirn, _, _ in raw]
    events = []
    group_start = 0
    for j in range(1, len(raw) + 1):
        if j < len(raw):
            span = values[raw[j - 1][2]:raw[j][3] + 1]
            if np.all(np.abs(span) < layer_width):
                continue
        events.append((raw[group_start][0], raw[j - 1][1]))
        group_start = j
    return events


def test_rk4_solve_matches_reference_on_the_reduced_loop():
    """Bit for bit, including steps inside the boundary layer."""
    L, T = 12.0, 0.35
    w = 2 * math.pi / T
    rate = lambda t: L * math.sin(w * t)
    over = Gains(k1=9.04, k2=13.2, delta=1e-4)      # reaches the layer and stays in it
    under = Gains(k1=0.9, k2=6.0, delta=2e-3)       # limit cycle through a wide layer
    for gains, x0 in ((over, (1.0, 0.0)), (under, (0.0, 0.0))):
        field = loop_field(gains, rate)
        times, states = rk4_solve(field, x0, 0.0, T / 2000, 8000)
        assert np.count_nonzero(np.abs(states[:, 0]) < gains.delta) > 100
        _assert_matches_reference(field, x0, 0.0, T / 2000, 8000)
    # a generic planar field with a nonzero start time
    _assert_matches_reference(lambda t, x: (x[1], -math.sin(x[0]) + math.cos(5 * t)),
                              (0.4, -0.2), 0.125, 1e-3, 3000)


@pytest.mark.parametrize("reference", [MotionProfile.constant_speed(18.0),
                                       MotionProfile.sinusoidal_velocity(4.0)])
def test_rk4_solve_matches_reference_on_the_motor_loop(reference):
    """The continuous motor loop's 3-state field, bit for bit."""
    field = motor_field(MotorModel(), reference, Gains(0.9, 11.65))
    _assert_matches_reference(field, (0.0, 18.5, 0.1), 0.0, 1e-4, 3000)


def test_rk4_solve_divergence_time_matches_reference():
    planar = lambda t, x: (x[0] * x[0], 0.0)
    spatial = lambda t, x: (0.0, 1.0, x[2] * x[2])
    for field, x0 in ((planar, (1.0, 0.0)), (spatial, (0.0, 0.0, 1.0))):
        with pytest.raises(DivergenceError) as expected:
            _reference_rk4(field, x0, 0.0, 1e-3, 2000)
        with pytest.raises(DivergenceError) as actual:
            rk4_solve(field, x0, 0.0, 1e-3, 2000)
        assert actual.value.time == expected.value.time


def test_rk4_solve_rejects_other_state_sizes():
    for x0 in ((1.0,), (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match=f"got {len(x0)} states"):
            rk4_solve(lambda t, x: x, x0, 0.0, 1e-3, 10)
    cfg = IntegrationConfig(dt=1e-3, n_steps=10)
    with pytest.raises(ValueError, match="planar"):
        integrate(Gains(1.0, 1.0), lambda t: 0.0, (1.0, 0.0, 0.0), cfg)
    # both motor loops step (theta, omega, z): a start of another size never reaches the kernel
    for motor in (MotorModel(), MotorModel(encoder_quantum=1e-5)):  # continuous, sampled
        for x0 in ((0.0,), (0.0, 18.0), (0.0, 18.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match=f"motor_loop steps 3 states, got {len(x0)}$"):
                _motor_loop(motor, MotionProfile.constant_speed(18.0), Gains(0.9, 11.65), cfg, x0)


@PROPERTY
@given(k1=st.floats(0.05, 10.0), k2=st.floats(0.05, 30.0), delta=st.floats(1e-6, 0.05),
       in_layer=st.booleans(), x1_frac=st.floats(-1.0, 1.0), x2=st.floats(-5.0, 5.0),
       amplitude=st.floats(0.0, 40.0), period=st.floats(0.05, 2.0),
       phase=st.floats(-math.pi, math.pi), dt=st.floats(1e-5, 2e-3))
def test_integrate_is_rk4_solve_on_the_loop_field(k1, k2, delta, in_layer, x1_frac, x2,
                                                  amplitude, period, phase, dt):
    """The written-out reduced loop equals rk4_solve on the law-built field, bit for bit."""
    gains = Gains(k1, k2, delta)
    w = 2 * math.pi / period
    rate = lambda t: amplitude * np.sin(w * t + phase)
    x0 = (x1_frac * (0.99 * delta if in_layer else 2.0), x2)
    cfg = IntegrationConfig(dt=dt, n_steps=400)
    traj = integrate(gains, rate, x0, cfg)
    times, states = rk4_solve(loop_field(gains, rate), x0, 0.0, dt, cfg.n_steps)
    assert traj.t.tobytes() == times.tobytes()
    assert traj.x1.tobytes() == states[:, 0].copy().tobytes()
    assert traj.x2.tobytes() == states[:, 1].copy().tobytes()
    assert not (traj.u.any() or traj.d.any() or traj.q.any())


@PROPERTY
@given(k1=st.floats(0.05, 10.0), k2=st.floats(0.05, 30.0), scale=st.floats(1e10, 1e290),
       blowup_steps=st.integers(50, 1500), dt=st.floats(1e-5, 1e-2))
def test_integrate_divergence_time_is_rk4_solves(k1, k2, scale, blowup_steps, dt):
    """A rate that overflows within ``blowup_steps`` steps stops both at the same time."""
    gains = Gains(k1, k2, 1e-4)
    growth = math.log(sys.float_info.max / scale) / (blowup_steps * dt)

    def rate(t):
        with np.errstate(over="ignore"):
            return scale * np.exp(growth * t)

    cfg = IntegrationConfig(dt=dt, n_steps=2 * blowup_steps)
    with pytest.raises(DivergenceError) as expected:
        rk4_solve(loop_field(gains, rate), (0.0, 0.0), 0.0, dt, cfg.n_steps)
    with pytest.raises(DivergenceError) as actual:
        integrate(gains, rate, (0.0, 0.0), cfg)
    assert actual.value.time == expected.value.time


#: A child process that points the kernel cache at argv[1], integrates one loop and
#: prints the trajectory's hash and whether it started a compiler or loaded a kernel.
_KERNEL_CHILD = """
import hashlib, sys
from pathlib import Path
events = []
sys.addaudithook(lambda event, args: events.append(event) if event == "subprocess.Popen"
                 or (event == "ctypes.dlopen" and "rk4_kernel" in str(args)) else None)
import numpy as np
import twistlab
from twistlab import integrator
loaded = integrator._kernel is not None or bool(events)
if len(sys.argv) > 1:
    integrator._KERNEL_DIR = Path(sys.argv[1])
    traj = integrator.integrate(twistlab.Gains(0.9, 11.65), lambda t: 12.0 * np.sin(20.0 * t),
                                (0.0, 0.5), integrator.IntegrationConfig(dt=1e-4, n_steps=5000))
    print(hashlib.sha256(traj.x1.tobytes() + traj.x2.tobytes()).hexdigest())
print(loaded, events.count("subprocess.Popen"), events.count("ctypes.dlopen"))
"""


def _kernel_child(*args):
    src = str(Path(twistlab.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-W", "error", "-c", _KERNEL_CHILD, *map(str, args)],
                            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _child_output(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.split("\n")[:-1]


def _this_process_hash():
    traj = integrate(Gains(0.9, 11.65), lambda t: 12.0 * np.sin(20.0 * t), (0.0, 0.5),
                     IntegrationConfig(dt=1e-4, n_steps=5000))
    return hashlib.sha256(traj.x1.tobytes() + traj.x2.tobytes()).hexdigest()


def _cache_files(cache):
    return sorted(p.name for p in Path(cache).iterdir())


def test_import_builds_and_loads_no_kernel():
    """Importing twistlab starts no compiler and loads no kernel; the first integrate does."""
    assert _child_output(_kernel_child()) == ["False 0 0"]


def test_a_warm_cache_runs_no_compiler(tmp_path):
    """The first process builds the kernel into the cache; the next one only loads it."""
    cold = _child_output(_kernel_child(tmp_path))
    (built,) = _cache_files(tmp_path)
    assert built.startswith("rk4_kernel-")
    assert built.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    warm = _child_output(_kernel_child(tmp_path))
    assert cold == [_this_process_hash(), "False 1 1"]
    assert warm == [_this_process_hash(), "False 0 1"]
    assert _cache_files(tmp_path) == [built]


def test_a_build_removes_this_interpreters_stale_kernels(tmp_path):
    """A cold build unlinks the kernels an earlier source left for this ABI, not other ABIs'."""
    stale = f"rk4_kernel-0{sysconfig.get_config_var('EXT_SUFFIX')}"
    other_abi = "rk4_kernel-0.cpython-39-other-abi.so"
    for name in (stale, other_abi):
        (tmp_path / name).write_text("")
    assert _child_output(_kernel_child(tmp_path))[0] == _this_process_hash()
    (built,) = set(_cache_files(tmp_path)) - {other_abi}
    assert built != stale and _cache_files(tmp_path) == sorted([built, other_abi])


def test_processes_on_a_cold_cache_all_succeed(tmp_path):
    """Two processes that start on an empty cache both build or load it and agree bit for bit."""
    racers = [_kernel_child(tmp_path) for _ in range(2)]
    outputs = [_child_output(proc) for proc in racers]
    assert [out[0] for out in outputs] == [_this_process_hash()] * 2
    assert len(_cache_files(tmp_path)) == 1  # one library, no temporary file left


@pytest.mark.parametrize("unusable", ["file", "file/cache"])
def test_an_unusable_cache_builds_into_a_private_directory(unusable, tmp_path, monkeypatch):
    """A cache path that is a file, or lies under one, falls back to a removed temporary build."""
    (tmp_path / "file").write_text("")
    private_root = tmp_path / "tmp"
    private_root.mkdir()
    expected = _this_process_hash()
    monkeypatch.setattr(integrator, "_KERNEL_DIR", tmp_path / unusable)
    monkeypatch.setattr(integrator, "_kernel", None)
    monkeypatch.setattr(tempfile, "tempdir", str(private_root))
    assert _this_process_hash() == expected
    assert integrator._kernel is not None
    assert _cache_files(tmp_path) == ["file", "tmp"] and _cache_files(private_root) == []


def test_a_failing_compiler_raises_its_error_once(tmp_path, monkeypatch):
    """A failed build names the command and the compiler's stderr; later calls re-raise it."""
    log = tmp_path / "compiler.log"
    failing = (f"import sys; open({str(log)!r}, 'a').write('ran\\n'); "
               "sys.stderr.write('cc1: no target for this file'); sys.exit(3)")
    cc = shlex.join([sys.executable, "-c", failing])
    cache = tmp_path / "cache"
    monkeypatch.setattr(integrator, "_KERNEL_CC", cc)
    monkeypatch.setattr(integrator, "_KERNEL_DIR", cache)
    monkeypatch.setattr(integrator, "_kernel", None)
    cfg = IntegrationConfig(dt=1e-3, n_steps=10)
    for _ in range(3):
        with pytest.raises(RuntimeError) as info:
            integrate(Gains(0.9, 1.2), lambda t: 0.0, (0.1, 0.0), cfg)
        message = str(info.value)
        assert message.startswith(f"building the RK4 kernel failed: {cc} -O2 -shared -fPIC "
                                  "-std=c99 -ffp-contract=off ")
        assert message.endswith(" exited with status 3:\ncc1: no target for this file")
    assert log.read_text() == "ran\n"
    assert _cache_files(cache) == []  # the failed build left no file behind
    monkeypatch.setattr(integrator, "_KERNEL_CC", "twistlab-no-such-cc")
    monkeypatch.setattr(integrator, "_kernel", None)
    with pytest.raises(RuntimeError, match="^building the RK4 kernel failed: twistlab-no-such-cc "):
        integrate(Gains(0.9, 1.2), lambda t: 0.0, (0.1, 0.0), cfg)


def _stage_grids(dt, n):
    """The stage times k*dt, k*dt + dt/2 and k*dt + dt of n steps, each computed on floats."""
    return [np.array([k * dt for k in range(n)]),
            np.array([k * dt + 0.5 * dt for k in range(n)]),
            np.array([k * dt + dt for k in range(n)])]


def _assert_called_on(calls, grids):
    assert [t.tobytes() for t in calls] == [g.tobytes() for g in grids]


def test_integrate_reads_the_rate_once_per_stage_time():
    """rate is called 3 times: on k*dt, on k*dt + dt/2 for both midpoint stages, on k*dt + dt."""
    calls = []

    def rate(t):
        calls.append(t.copy())
        return 12.0 * np.sin(20.0 * t)

    dt, n = 0.3125 / 2000, 250
    integrate(Gains(0.9, 11.65), rate, (0.3, 0.0), IntegrationConfig(dt=dt, n_steps=n))
    _assert_called_on(calls, _stage_grids(dt, n))


def test_integrate_broadcasts_a_scalar_rate():
    """A rate that ignores its times gives the trajectory of the same constant on the grid."""
    cfg = IntegrationConfig(dt=1e-3, n_steps=500)
    scalar = integrate(Gains(0.9, 1.2), lambda t: 1.5, (0.3, -0.1), cfg)
    full = integrate(Gains(0.9, 1.2), lambda t: np.full_like(t, 1.5), (0.3, -0.1), cfg)
    for channel in ("t", "x1", "x2"):
        assert getattr(scalar, channel).tobytes() == getattr(full, channel).tobytes()


_HARMONICS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi)),
                      max_size=2)


@st.composite
def _motor_loops(draw):
    """A motor, a constant or sinusoidal reference, gains and a start for the continuous loop."""
    model = FrictionCoggingModel(coulomb=draw(st.floats(0.0, 0.5)),
                                 steepness=draw(st.floats(1.0, 400.0)),
                                 viscous=draw(st.floats(0.0, 0.05)),
                                 harmonics=tuple(draw(_HARMONICS)))
    motor = MotorModel(friction_cogging=model)
    if draw(st.booleans()):
        reference = MotionProfile.constant_speed(draw(st.floats(-25.0, 25.0)))
    else:
        reference = MotionProfile.sinusoidal_velocity(draw(st.floats(0.5, 10.0)),
                                                      accel_peak=draw(st.floats(0.0, 200.0)))
    gains = Gains(draw(st.floats(0.05, 10.0)), draw(st.floats(0.05, 40.0)),
                  draw(st.floats(1e-6, 0.05)))
    # the initial error inside the boundary layer, just outside its edge, or well outside
    frac, where = draw(st.floats(-1.0, 1.0)), draw(st.sampled_from(["in", "edge", "out"]))
    error = {"in": 0.99 * frac * gains.delta, "edge": math.copysign(1.00005 * gains.delta, frac),
             "out": 2.0 * frac}[where]
    integral = draw(st.floats(-5.0, 5.0))
    x0 = (float(reference.theta(0.0)), float(reference.omega(0.0)) + error, integral)
    return motor, reference, gains, x0


@PROPERTY
@given(loop=_motor_loops(), dt=st.floats(1e-5, 2e-3))
def test_continuous_motor_loop_is_rk4_solve_on_the_motor_field(loop, dt):
    """The written-out continuous motor loop equals rk4_solve on the law-built field, bit for bit."""
    motor, reference, gains, x0 = loop
    cfg = IntegrationConfig(dt=dt, n_steps=300)
    times, states = _motor_loop(motor, reference, gains, cfg, x0)
    ref_times, ref_states = rk4_solve(motor_field(motor, reference, gains), x0, 0.0, dt,
                                      cfg.n_steps)
    assert times.tobytes() == ref_times.tobytes()
    assert states.tobytes() == ref_states.tobytes()


@PROPERTY
@given(loop=_motor_loops(), dt=st.floats(1e-4, 1e-2), stiffness=st.floats(4.0, 50.0))
def test_continuous_motor_loop_divergence_time_is_rk4_solves(loop, dt, stiffness):
    """Viscous friction too stiff for the step (dt*viscous of 4-50) blows both up together.

    With cogging, an angle can overflow inside a step.  The kernel's ``sin``
    then returns NaN, which the step's finiteness check catches; the
    reference's ``math.sin`` raises ValueError, which ``rk4_solve`` takes as
    the divergence.  Both stop at the same time.
    """
    motor, reference, gains, (theta, omega, z) = loop
    model = motor.friction_cogging
    model = dataclasses.replace(model, viscous=stiffness / dt,
                                harmonics=model.harmonics + ((0.5, 0.3),))
    motor = dataclasses.replace(motor, friction_cogging=model)
    x0 = (theta, omega + 1.0, z)  # off the equilibrium, which a zero reference would keep
    cfg = IntegrationConfig(dt=dt, n_steps=2000)
    with pytest.raises(DivergenceError) as expected:
        rk4_solve(motor_field(motor, reference, gains), x0, 0.0, dt, cfg.n_steps)
    with pytest.raises(DivergenceError) as actual:
        _motor_loop(motor, reference, gains, cfg, x0)
    assert actual.value.time == expected.value.time


@st.composite
def _sampled_motors(draw):
    """A motor, reference, gains and start of ``_motor_loops`` with the encoder, noise or both on."""
    motor, reference, gains, x0 = draw(_motor_loops())
    quantum = draw(st.sampled_from([0.0, 1e-9, 1e-5, 1e-3, 0.05]))
    noise_std = draw(st.sampled_from([0.0, 1e-4, 1e-2] if quantum else [1e-4, 1e-2]))
    motor = dataclasses.replace(motor, encoder_quantum=quantum, noise_std=noise_std,
                                velocity_window=draw(st.integers(1, 40)))
    return motor, reference, gains, x0


@PROPERTY
@given(loop=_sampled_motors(), dt=st.floats(1e-5, 2e-3), seed=st.integers(0, 2 ** 32))
def test_sampled_motor_loop_is_the_python_reference(loop, dt, seed):
    """The sampled kernel equals the sampled loop on Python floats, bit for bit."""
    motor, reference, gains, x0 = loop
    cfg = IntegrationConfig(dt=dt, n_steps=300)
    times, states = _motor_loop(motor, reference, gains, cfg, x0, np.random.default_rng(seed))
    ref_times, ref_states = sampled_motor_loop(motor, reference, gains, cfg, x0,
                                               np.random.default_rng(seed))
    assert times.tobytes() == ref_times.tobytes()
    assert states.tobytes() == ref_states.tobytes()


def test_sampled_motor_loop_divergence_is_a_divergence_error():
    """A sampled loop that blows up stops with DivergenceError at the reference's time.

    Stiff viscous friction (dt*viscous of 3-50) with cogging overflows the
    state, or an angle inside a step: the kernel's ``sin`` returns NaN there,
    which the step's finiteness check catches, while the reference's
    ``math.sin`` raises.  An encoder quantum of 1e-310 overflows
    ``theta / quantum`` once theta passes about 0.018 rad: the kernel's
    ``floor`` keeps the inf, the speed estimate that reads it is inf or NaN,
    and the step ends non-finite.
    """
    rng = np.random.default_rng(31)
    dt, n = 1e-3, 2000
    motors = [MotorModel(friction_cogging=FrictionCoggingModel(
        viscous=float(rng.uniform(3.0, 50.0)) / dt, harmonics=((0.5, 0.3),)),
        encoder_quantum=1e-5) for _ in range(20)]
    motors += [MotorModel(encoder_quantum=1e-310),
               MotorModel(encoder_quantum=1e-310, velocity_window=3, noise_std=1e-3)]
    for motor in motors:
        args = (motor, MotionProfile.constant_speed(10.0), Gains(0.9, 5.0),
                IntegrationConfig(dt=dt, n_steps=n), (0.0, 10.3, 0.0))
        with pytest.raises(DivergenceError) as expected:
            sampled_motor_loop(*args, np.random.default_rng(2))
        with pytest.raises(DivergenceError) as actual:
            _motor_loop(*args, np.random.default_rng(2))
        assert actual.value.time == expected.value.time
    # the overflowed quantizer: theta passes 0.018 rad at t = 2*dt; the next step reads it
    assert actual.value.time == 3 * dt


def test_motor_loop_passes_a_reference_value_error_through():
    """A ValueError from the reference on its grid is the caller's error, not a divergence."""
    def omega(t):
        if np.any(t > 0.0105):
            raise ValueError("reference out of range")
        return 18.0 + 0.0 * t

    reference = MotionProfile(omega=omega, theta=lambda t: 18.0 * t, omega_dot=lambda t: 0.0 * t)
    for motor in (MotorModel(), MotorModel(encoder_quantum=1e-5)):  # continuous, sampled
        with pytest.raises(ValueError, match="reference out of range"):
            _motor_loop(motor, reference, Gains(0.9, 11.65),
                        IntegrationConfig(dt=1e-3, n_steps=100), (0.0, 18.3, 0.0))


def test_continuous_motor_loop_reads_the_reference_once_per_stage_time():
    """The continuous rule calls omega_r and domega_r/dt once on each of the three stage grids;
    the sampled rule calls each once, on k*dt."""
    dt, n = 2 * math.pi / 18.0 / 1000, 200
    grids = _stage_grids(dt, n)
    for motor, expected in ((MotorModel(), grids), (MotorModel(encoder_quantum=1e-5), grids[:1])):
        calls = {"omega": [], "accel": []}

        def reading(name, value):
            def read(t):
                calls[name].append(t.copy())
                return value + 0.0 * t
            return read

        reference = MotionProfile(omega=reading("omega", 18.0), theta=lambda t: 18.0 * t,
                                  omega_dot=reading("accel", 0.0))
        _motor_loop(motor, reference, Gains(0.9, 11.65),
                    IntegrationConfig(dt=dt, n_steps=n), (0.0, 18.3, 0.0))
        for name in ("omega", "accel"):
            _assert_called_on(calls[name], expected)


def test_linear_drift():
    _, states = rk4_solve(lambda t, x: (x[1], 0.0), (0.0, 1.0), 0.0, 1e-3, 1000)
    assert states[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_exponential_decay():
    _, states = rk4_solve(lambda t, x: (-x[0], -x[1]), (1.0, 1.0), 0.0, 1e-3, 1000)
    assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert states[-1, 1] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_overtuned_loop_reaches_layer():
    """With k2 above the rate bound the error ends delta-close to zero.

    Cross-checked against a halved-step integration of the same loop.
    """
    gains = Gains(k1=9.04, k2=13.2, delta=1e-4)
    L, T = 12.0, 0.35
    w = 2 * math.pi / T
    rate = lambda t: L * np.sin(w * t)
    coarse = integrate(gains, rate, (1.0, 0.0), IntegrationConfig.for_period(T, 2000, 12))
    fine = integrate(gains, rate, (1.0, 0.0), IntegrationConfig.for_period(T, 4000, 12))
    assert abs(coarse.x1[-1]) < 10 * gains.delta
    assert abs(fine.x1[-1]) < 10 * gains.delta
    assert abs(coarse.x1[-1] - fine.x1[-1]) < gains.delta


def test_determinism():
    field = lambda t, x: (x[1], -math.sin(x[0]) - 0.3 * x[1] + math.cos(5 * t))
    a_t, a = rk4_solve(field, (0.4, -0.2), 0.0, 1e-3, 500)
    b_t, b = rk4_solve(field, (0.4, -0.2), 0.0, 1e-3, 500)
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.array_equal(a[:, 1], b[:, 1])
    assert np.array_equal(a_t, b_t)


def test_rk4_order():
    """Halving the step shrinks the terminal error about sixteen-fold."""
    field = lambda t, x: (x[1], -x[0])
    exact = (math.cos(1.0), -math.sin(1.0))
    errors = []
    for n in (50, 100, 200):
        _, states = rk4_solve(field, (1.0, 0.0), 0.0, 1.0 / n, n)
        errors.append(math.hypot(states[-1, 0] - exact[0], states[-1, 1] - exact[1]))
    assert errors[0] / errors[1] == pytest.approx(16.0, abs=3.0)
    assert errors[1] / errors[2] == pytest.approx(16.0, abs=3.0)


def test_divergence_error_carries_time():
    with pytest.raises(DivergenceError) as info:
        rk4_solve(lambda t, x: (x[0] * x[0], 0.0), (1.0, 0.0), 0.0, 1e-3, 2000)
    assert 0.0 < info.value.time <= 2.0


def test_records_are_finite_and_uniform():
    cfg = IntegrationConfig(dt=1e-3, n_steps=400)
    traj = solve_trajectory(lambda t, x: (x[1], -x[0]), (1.0, 0.0), cfg)
    assert len(traj) == 401
    assert np.all(np.isfinite(traj.x1)) and np.all(np.isfinite(traj.x2))
    spacing = np.diff(traj.t)
    assert np.allclose(spacing, traj.dt, rtol=1e-9)
    assert traj.dt == 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(dt=0.0, n_steps=1000)
    for n_steps in (0, -1, 2.5, True, 10.0):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
            IntegrationConfig(dt=1e-3, n_steps=n_steps)
    with pytest.warns(UserWarning):
        IntegrationConfig.for_period(1.0, steps_per_period=100, periods=2)


def test_for_period_alignment():
    cfg = IntegrationConfig.for_period(0.35, steps_per_period=2000, periods=7)
    assert cfg.n_steps == 14000
    assert cfg.n_steps * cfg.dt == pytest.approx(7 * 0.35, rel=1e-12)


def test_csv_round_trip(tmp_path):
    cfg = IntegrationConfig(dt=1e-3, n_steps=100)
    traj = solve_trajectory(lambda t, x: (x[1], -x[0]), (1.0, 0.0), cfg)
    traj = dataclasses.replace(traj, u=np.sin(traj.t), d=traj.t, q=0 * traj.t)
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert path.read_text().splitlines()[0] == "t,x1,x2,u,d,q"
    channels = (traj.t, traj.x1, traj.x2, traj.u, traj.d, traj.q)
    for column, channel in zip(data.T, channels, strict=True):
        assert np.array_equal(column, channel)
    assert path.read_bytes() == repr_csv(integrator.CSV_HEADER, channels)


def _patterns(values):
    """The 64-bit patterns of the doubles ``values``."""
    return np.array(values, dtype=float).view(np.uint64).tolist()


#: Doubles at the edges of the range and of repr's two notations.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308, 1e16, 9999999999999998.0,
          1e-4, 1e-5, 0.0001234, 1.0, 0.1, math.inf, -math.inf, math.nan, -math.nan]
#: Every power of two and its two neighbours.
_POWERS_OF_TWO = [v for e in range(-1074, 1024)
                  for v in (math.nextafter(math.ldexp(1.0, e), 0.0), math.ldexp(1.0, e),
                            math.nextafter(math.ldexp(1.0, e), math.inf))]


@PROPERTY
@example(patterns=_patterns(_EDGES))
@example(patterns=_patterns(_POWERS_OF_TWO))
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_format_rows_writes_each_double_as_repr(patterns):
    """The kernel's CSV rows equal repr's, byte for byte, on raw 64-bit patterns."""
    values = np.array(patterns, dtype=np.uint64).view(float)
    columns = (values, values[::-1])
    table = io.BytesIO()
    integrator.write_csv(table, "a,b", columns)
    assert table.getvalue() == repr_csv("a,b", columns)


def test_the_longest_reprs_fill_the_csv_buffer():
    """The longest reprs have 24 characters: with its separator, each fills the writer's
    CSV_VALUE_BYTES, over a whole chunk and the one row that a second call formats."""
    longest = [-2.2250738585072014e-308, -1.7976931348623157e308, -1.2345678901234567e-100]
    assert [len(repr(v)) for v in longest] == [integrator.CSV_VALUE_BYTES - 1] * 3
    columns = [np.resize(longest, integrator.CSV_CHUNK_ROWS + 1)] * 6
    table = io.BytesIO()
    integrator.write_csv(table, integrator.CSV_HEADER, columns)
    assert table.getvalue() == repr_csv(integrator.CSV_HEADER, columns)
    assert len(table.getvalue()) == (len(integrator.CSV_HEADER) + 1
                                     + (integrator.CSV_CHUNK_ROWS + 1) * 6
                                     * integrator.CSV_VALUE_BYTES)


def test_detect_crossings_sine():
    t = np.linspace(0.0, 1.05, 2101)
    crossings = detect_crossings(_make_traj(t, np.sin(2 * math.pi * t)))
    assert len(crossings) == 2
    (t1, d1), (t2, d2) = crossings
    assert t1 == pytest.approx(0.5, abs=1e-3)
    assert t2 == pytest.approx(1.0, abs=1e-3)
    assert (d1, d2) == (-1, 1)


def test_detect_crossings_all_positive():
    t = np.linspace(0.0, 1.0, 101)
    assert detect_crossings(_make_traj(t, np.cos(t) + 2.0)) == []


def test_detect_crossings_coalesces_layer_chatter():
    """Wiggles that stay inside the layer collapse to one event."""
    delta = 0.1
    t = np.arange(30) * 0.01
    x = np.concatenate([
        np.full(10, 1.0),                                # solidly positive
        0.02 * np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, -1.0]),  # chatter inside layer
        np.full(10, -1.0),                               # solidly negative
    ])
    traj = _make_traj(t, x)
    events = detect_crossings(traj, delta)
    assert len(events) == 1
    assert events[0][1] == -1
    # with no layer width, the default, every wiggle counts
    assert len(detect_crossings(traj)) == len(detect_crossings(traj, layer_width=0.0)) == 9


def test_detect_crossings_matches_sample_scan():
    """Zeros, runs of zeros, NaN, one sample and layer chatter give the loop's exact events."""
    t = np.arange(40) * 0.01
    chatter = np.concatenate([np.full(10, 1.0),
                              0.02 * np.array([1, -1, 1, 0, -1, 1, -1, 1, 0.0, -1]),
                              np.full(10, -1.0), 0.05 * np.sin(np.arange(10.0))])
    signals = [
        np.sin(2 * math.pi * 3.3 * t),
        np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0, -0.0, 0.0, -3.0] * 4),
        np.array([0.0] * 5 + [-1.0, 1.0] * 5 + [0.0] * 25),
        np.array([1.0, np.nan, -1.0, np.nan, np.nan, 2.0, -2.0, np.nan, 0.0, 1.0] * 4),
        chatter,
        np.zeros(40),
    ]
    for x in signals:
        traj = _make_traj(t, x)
        for width in (0.0, 0.03, 0.5):
            expected = _reference_crossings(traj, width)
            actual = detect_crossings(traj, width)
            assert actual == expected
            assert all(type(tc) is float and type(d) is int for tc, d in actual)
    assert len(detect_crossings(_make_traj(t, chatter), 0.0)) > 8
    one = Trajectory(t=np.array([0.0]), x1=np.array([1.0]), x2=np.zeros(1), u=np.zeros(1),
                     d=np.zeros(1), q=np.zeros(1), dt=1.0)
    assert detect_crossings(one) == _reference_crossings(one) == []


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        _make_traj(t, np.zeros(3))
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 1.0]), x1=np.zeros(3), x2=np.zeros(2),
                   u=np.zeros(2), d=np.zeros(2), q=np.zeros(2), dt=1.0)


def test_trajectory_rejects_a_channel_that_is_not_1d(tmp_path):
    """A 2-D channel of the right length, or a scalar one, is refused by name; lists stay accepted."""
    channels = {name: np.zeros(3) for name in ("t", "x1", "x2", "u", "d", "q")}
    channels["t"] = np.arange(3.0)
    for name in channels:
        for bad in (np.zeros((3, 2)), 0.0):
            with pytest.raises(ValueError, match=f"channel {name} must be 1-D"):
                Trajectory(**{**channels, name: bad}, dt=1.0)
    listed = Trajectory(t=[0.0, 0.5, 1.0], x1=[1, 2, 3], x2=[0.1] * 3, u=[-0.0] * 3,
                        d=[1e300] * 3, q=[0] * 3, dt=0.5)
    listed.to_csv(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == repr_csv(
        integrator.CSV_HEADER, (listed.t, listed.x1, listed.x2, listed.u, listed.d, listed.q))
