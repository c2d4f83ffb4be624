"""Deterministic fixed-step RK4 integration with dense records.

Fixed stepping is deliberate: the regularized loop has a steep but bounded
slope inside the boundary layer, and period-map analysis needs samples that
land exactly on multiples of the perturbation period.  Adaptive stepping
would break both.
"""

from __future__ import annotations

import contextlib
import functools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dynamics import Gains, check_number

__all__ = [
    "DivergenceError",
    "IntegrationConfig",
    "Trajectory",
    "integrate",
    "detect_crossings",
]

CSV_HEADER = "t,x1,x2,u,d,q"
CSV_CHUNK_ROWS = 1024
#: Bytes per CSV value and its separator: the longest ``repr`` of a double,
#: ``-2.2250738585072014e-308``, has 24 characters.
CSV_VALUE_BYTES = 25


class DivergenceError(RuntimeError):
    """A state component became non-finite; carries the blow-up time."""

    def __init__(self, time: float):
        super().__init__(f"integration diverged at t={time:g}")
        self.time = time


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size and step count (horizon ``n_steps * dt``) for one run; every step is recorded."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        check_number(self.dt, name="dt")
        check_number(self.n_steps, "an integer >= 1", lambda v: v >= 1, integer=True,
                     name="n_steps")

    @classmethod
    def for_period(cls, period: float, steps_per_period: int, periods: int) -> "IntegrationConfig":
        """Config aligned to a forcing period: dt = period / steps_per_period.

        Samples then land exactly on period multiples, which the stroboscopic
        map requires.  A step coarser than period/200 draws a warning.
        """
        check_number(period, name="period")
        for name, count in (("steps_per_period", steps_per_period), ("periods", periods)):
            check_number(count, "an integer >= 1", lambda v: v >= 1, integer=True, name=name)
        if steps_per_period < 200:
            warnings.warn(
                f"dt = T/{steps_per_period} is coarser than T/200; "
                "the boundary layer may be under-resolved",
                stacklevel=2,
            )
        return cls(dt=period / steps_per_period, n_steps=steps_per_period * periods)


@dataclass
class Trajectory:
    """Run record, one row per integration step, with control and disturbance channels.

    ``u`` holds the input actually applied to the plant (the inner
    super-twisting action for reduced-loop runs, the motor torque command
    for virtual-motor runs).  ``dt`` is the integration step, and so the
    spacing of the records: record ``k`` is at time ``k*dt``.
    """

    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    d: np.ndarray
    q: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "u", "d", "q"):
            shape = np.shape(getattr(self, name))
            if len(shape) != 1:
                raise ValueError(f"channel {name} must be 1-D, got shape {shape}")
            if shape[0] != len(self.x1):
                raise ValueError(f"channel {name} length mismatch")
        check_number(self.dt, name="dt")

    def __len__(self) -> int:
        return len(self.x1)

    @property
    def t(self) -> np.ndarray:
        """The record times ``k*dt``, as :func:`run_loop` lays them out."""
        return np.arange(len(self)) * self.dt

    def to_csv(self, path) -> None:
        """Write the canonical `t,x1,x2,u,d,q` table, each value as ``repr`` writes it.

        The kernel's ``format_rows`` formats the rows (see :func:`write_csv`),
        ``CSV_CHUNK_ROWS`` at a time, so memory stays bounded on long runs.
        """
        with open(path, "wb") as fh:
            write_csv(fh, CSV_HEADER, (self.t, self.x1, self.x2, self.u, self.d, self.q))


def write_csv(fh, header: str, columns) -> None:
    """Write ``header`` and one row per index of the equal-length 1-D ``columns`` to ``fh``.

    ``fh`` is a binary file.  Each value is written as ``repr(float(value))``
    writes it, byte for byte: the kernel's ``format_rows`` prints Ryū's
    shortest round-trip digits (U. Adams, PLDI 2018) in ``repr``'s layout.
    It formats ``CSV_CHUNK_ROWS`` rows per call into one reused buffer of
    ``CSV_VALUE_BYTES`` per value.  On a 2-vCPU Intel Xeon VM (gcc 12) it
    took 0.04 us per value, where ``repr`` took 0.53 us.
    """
    columns = [np.ascontiguousarray(c, dtype=float) for c in columns]
    n_rows = len(columns[0])
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("CSV columns must be 1-D and of one length")
    fh.write(header.encode() + b"\n")
    format_rows = _rk4_kernel().format_rows
    inverse, positive = _ryu_tables()
    addresses = np.array([c.ctypes.data for c in columns], dtype=np.uintp)
    out = np.empty(CSV_CHUNK_ROWS * len(columns) * CSV_VALUE_BYTES, dtype=np.uint8)
    for first in range(0, n_rows, CSV_CHUNK_ROWS):
        size = format_rows(addresses.ctypes.data, len(columns), first,
                           min(CSV_CHUNK_ROWS, n_rows - first),
                           inverse.ctypes.data, positive.ctypes.data, out.ctypes.data)
        fh.write(out.data[:size])


@functools.cache
def _ryu_tables() -> tuple[np.ndarray, np.ndarray]:
    """Ryū's 125-bit powers of five as rows of (low, high) ``uint64`` words, built once.

    The inverse table holds ``2**(bitlen(5**i) - 1 + 125) // 5**i + 1`` for
    ``i < 342``, the positive one the top 125 bits of ``5**i`` for
    ``i < 326``, computed on exact integers.
    """
    def words(values):
        table = np.array([(v & (2**64 - 1), v >> 64) for v in values], dtype=np.uint64)
        table.flags.writeable = False  # one copy serves every writer in the process
        return table

    powers = [5**i for i in range(342)]
    inverse = words([2**(p.bit_length() - 1 + 125) // p + 1 for p in powers])
    positive = words([p >> max(p.bit_length() - 125, 0) << max(125 - p.bit_length(), 0)
                      for p in powers[:326]])
    return inverse, positive


def on_grid(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """``f`` called once on the whole ``grid``, as a contiguous float64 array a kernel can read.

    A scalar result is broadcast to the grid.
    """
    return np.ascontiguousarray(np.broadcast_to(f(grid), grid.shape), dtype=float)


def stage_grids(f: Callable[[np.ndarray], np.ndarray], cfg: IntegrationConfig) -> list[np.ndarray]:
    """``f`` on the RK4 stage times ``k*dt``, ``k*dt + dt/2`` (both midpoints) and ``k*dt + dt``."""
    grid = np.arange(cfg.n_steps) * cfg.dt
    return [on_grid(f, g) for g in (grid, grid + 0.5 * cfg.dt, grid + cfg.dt)]


#: The states each kernel loop steps: the length of its rows in ``states``.
_LOOP_STATES = {"rk4_loop": 2, "motor_loop": 3, "sampled_motor_loop": 3}


def run_loop(name: str, gains: Gains, cfg: IntegrationConfig, x0,
             *args) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) of the kernel loop ``name`` stepped ``cfg.n_steps`` times from ``x0``.

    ``times`` is ``k*dt`` for every record ``k``, and ``states`` holds one
    row of the loop's states per record, row 0 being ``x0``.  The loop is
    called as ``name(-k1, -k2, delta, dt, *args, n_steps, states)``; a numpy
    array in ``args`` is passed by its address, so it must be contiguous
    float64, as :func:`on_grid` and :func:`stage_grids` return.  Every loop
    reads stage ``k``'s inputs by index and writes the law in
    :func:`~twistlab.dynamics.twisting_action`'s operation order (see
    :data:`_KERNEL_SOURCE`).  The first call in a process builds or loads
    the kernel, which needs a C compiler (see :func:`_rk4_kernel`).  Raises
    :class:`DivergenceError` at the end of the first step whose state is
    non-finite.

    A whole call over 20,000 steps, grids and noise included, took per step
    (2-vCPU Intel Xeon VM, gcc 12, CPython 3.11; the best of 40 calls, over
    6 processes): 0.12-0.16 us for :func:`integrate`, and for the motor loop
    0.21-0.28 us at constant speed, 0.27-0.34 us on a 4 Hz sinusoidal
    reference and 0.21-0.28 us sampled.  Their references on Python floats in
    ``tests/_fields.py`` took 3.4, 4.0, 5.7 and 2.8 us per step, to the same
    bits.
    """
    start = [float(v) for v in x0]
    if len(start) != _LOOP_STATES[name]:
        raise ValueError(f"{name} steps {_LOOP_STATES[name]} states, got {len(start)}")
    dt, n_steps = cfg.dt, cfg.n_steps
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, len(start)))
    states[0] = start
    addresses = (a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)
    steps = getattr(_rk4_kernel(), name)(-gains.k1, -gains.k2, gains.delta, dt, *addresses,
                                         n_steps, states.ctypes.data)
    if steps < n_steps:
        raise DivergenceError(steps * dt + dt)
    return times, states


def integrate(gains: Gains, rate: Callable[[np.ndarray], np.ndarray], x0,
              cfg: IntegrationConfig) -> Trajectory:
    """Integrate the reduced loop from ``x0 = (x1, x2)`` at t = 0 into a :class:`Trajectory`.

        dx1 = -k1*sqrt(|x1|)*s + x2
        dx2 = -k2*s + rate(t),       s = sat(x1/delta)

    ``rate`` takes an array of times and is called once on each of
    :func:`stage_grids`; the kernel's ``rk4_loop`` takes the classical RK4
    steps through :func:`run_loop`.  The ``u``, ``d`` and ``q`` channels
    are zero; a caller that knows them swaps them in with
    ``dataclasses.replace``.
    """
    start = tuple(float(v) for v in x0)
    if len(start) != 2:
        raise ValueError(f"integrate expects a planar state (x1, x2), got {len(start)} states")
    times, states = run_loop("rk4_loop", gains, cfg, start, *stage_grids(rate, cfg))
    u, d, q = (np.zeros_like(times) for _ in range(3))
    return Trajectory(x1=states[:, 0].copy(), x2=states[:, 1].copy(), u=u, d=d, q=q, dt=cfg.dt)


#: The RK4 loops in C, each called through :func:`run_loop`: the reduced loop
#: (``rk4_loop``) and both step rules of the motor loop (``motor_loop``,
#: ``sampled_motor_loop``).  Their one ``rk4_step`` keeps the operation order
#: of ``rk4_solve`` in tests/_fields.py, and their fields that of
#: ``loop_field``, ``motor_field`` and the sampled rotor of
#: ``sampled_motor_loop`` there.  With ``FLT_EVAL_METHOD == 0``
#: and no contraction into FMA, every ``+ - * /`` and ``sqrt`` rounds to double
#: as CPython's float does, and ``atan`` and ``sin`` are the libm calls behind
#: ``math.atan`` and ``math.sin``.  The same library holds the CSV writer
#: ``format_rows``, held to ``repr_csv`` there byte for byte; it needs
#: ``unsigned __int128``.
_KERNEL_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the RK4 kernel needs FLT_EVAL_METHOD == 0: each operation rounded to double"
#endif
#if !defined(__SIZEOF_INT128__)
#error "the CSV writer needs unsigned __int128 for Ryu's 64 x 128-bit products"
#endif

static double sat(double s)
{
    return s > 1.0 ? 1.0 : (s < -1.0 ? -1.0 : s);
}

/* A loop: the law, the step, its stage inputs and the load model.  Its field
   sets the derivatives dx of its states x at stage input `stage` of step k: 0
   on k*dt, 1 on both midpoints, 2 on k*dt + dt.  Fields are static inline, so
   that rk4_step calls each directly. */
typedef struct {
    double neg_k1, neg_k2, delta, dt;
    const double *in[6];
    const double *model;
    int64_t n_harmonics;
    double u0;  /* the sampled rotor's held torque */
} loop;
typedef void field(const loop *l, int64_t k, int stage, const double *x, double *dx);

/* One classical RK4 step of the n states x in rk4_solve's operation order;
   returns whether every new state is finite. */
static inline int rk4_step(field *f, const loop *l, int n, int64_t k, double *x)
{
    const double dt = l->dt, half = 0.5 * dt, sixth = dt / 6.0;
    double a[3], b[3], c[3], e[3], y[3];
    int i, finite = 1;
    f(l, k, 0, x, a);
    for (i = 0; i < n; i++)
        y[i] = x[i] + half * a[i];
    f(l, k, 1, y, b);
    for (i = 0; i < n; i++)
        y[i] = x[i] + half * b[i];
    f(l, k, 1, y, c);
    for (i = 0; i < n; i++)
        y[i] = x[i] + dt * c[i];
    f(l, k, 2, y, e);
    for (i = 0; i < n; i++) {
        x[i] = x[i] + sixth * (a[i] + 2.0 * (b[i] + c[i]) + e[i]);
        finite &= isfinite(x[i]) != 0;
    }
    return finite;
}

/* Steps the n states of row 0 of states into row k + 1 for k < n_steps; returns
   n_steps, or the k of the first step that ends on a non-finite state. */
static inline int64_t record(field *f, const loop *l, int n, int64_t n_steps, double *states)
{
    double x[3];
    memcpy(x, states, (size_t)n * sizeof *x);
    for (int64_t k = 0; k < n_steps; k++) {
        if (!rk4_step(f, l, n, k, x))
            return k;
        memcpy(states + n * (k + 1), x, (size_t)n * sizeof *x);
    }
    return n_steps;
}

/* The reduced loop: x = (x1, x2), the rate in in[stage]. */
static inline void loop_field(const loop *l, int64_t k, int stage, const double *x, double *dx)
{
    const double s = sat(x[0] / l->delta);
    dx[0] = l->neg_k1 * sqrt(fabs(x[0])) * s + x[1];
    dx[1] = l->neg_k2 * s + l->in[stage][k];
}

int64_t rk4_loop(double neg_k1, double neg_k2, double delta, double dt,
                 const double *rate_a, const double *rate_mid, const double *rate_end,
                 int64_t n_steps, double *states)
{
    const loop l = {neg_k1, neg_k2, delta, dt, {rate_a, rate_mid, rate_end}, NULL, 0, 0.0};
    return record(loop_field, &l, 2, n_steps, states);
}

/* The motor's load torque per unit inertia, in FrictionCoggingModel.torque's
   operation order.  model = {coulomb * (2/pi), steepness, viscous, then an
   (amplitude, phase) pair per cogging harmonic}. */
static double torque(const loop *l, double omega, double theta)
{
    double d = l->model[0] * atan(l->model[1] * omega) + l->model[2] * omega;
    for (int64_t i = 0; i < l->n_harmonics; i++)
        d += l->model[3 + 2 * i] * sin(theta + l->model[4 + 2 * i]);
    return d;
}

/* The continuous motor loop: x = (theta, omega, z), the reference's omega in
   in[stage] and its acceleration in in[3 + stage]. */
static inline void motor_field(const loop *l, int64_t k, int stage, const double *x, double *dx)
{
    const double e = x[1] - l->in[stage][k];
    const double s = sat(e / l->delta);
    dx[0] = x[1];
    dx[1] = l->neg_k1 * sqrt(fabs(e)) * s + x[2] + l->in[3 + stage][k] + torque(l, x[1], x[0]);
    dx[2] = l->neg_k2 * s;
}

int64_t motor_loop(double neg_k1, double neg_k2, double delta, double dt,
                   const double *model, int64_t n_harmonics,
                   const double *omega_a, const double *omega_mid, const double *omega_end,
                   const double *accel_a, const double *accel_mid, const double *accel_end,
                   int64_t n_steps, double *states)
{
    const loop l = {neg_k1, neg_k2, delta, dt,
                    {omega_a, omega_mid, omega_end, accel_a, accel_mid, accel_end},
                    model, n_harmonics, 0.0};
    return record(motor_field, &l, 3, n_steps, states);
}

/* The sampled rotor: x = (theta, omega) under the held torque u0. */
static inline void rotor_field(const loop *l, int64_t k, int stage, const double *x, double *dx)
{
    (void)k, (void)stage;
    dx[0] = x[1];
    dx[1] = l->u0 + torque(l, x[1], x[0]);
}

/* The sampled motor loop: the law acts on the measured speed, the backward
   difference over `window` steps of the position quantized to `quantum` (0:
   unquantized) plus noise[k] (NULL: no noise); u0 is held over the rotor's RK4
   step and z takes an Euler step.  `measured` is a ring of window + 1
   positions: step k's at k % (window + 1), so step k - window's is the slot
   after it.  The caller keeps window <= n_steps, so window + 1 cannot
   overflow.  States as in motor_field, the reference on k*dt. */
int64_t sampled_motor_loop(double neg_k1, double neg_k2, double delta, double dt,
                           const double *model, int64_t n_harmonics,
                           const double *omega_r, const double *accel_r,
                           double quantum, int64_t window, const double *noise,
                           double *measured, int64_t n_steps, double *states)
{
    loop l = {neg_k1, neg_k2, delta, dt, {NULL}, model, n_harmonics, 0.0};
    const double window_dt = (double)window * dt;
    const int64_t ring = window + 1;
    double x[3] = {states[0], states[1], states[2]};
    for (int64_t k = 0; k < n_steps; k++) {
        const double theta_meas = quantum > 0.0 ? floor(x[0] / quantum) * quantum : x[0];
        const int64_t slot = k % ring;
        double omega_meas, e, s;
        measured[slot] = theta_meas;
        if (k >= window)
            omega_meas = (theta_meas - measured[(slot + 1) % ring]) / window_dt;
        else if (k)
            omega_meas = (theta_meas - measured[0]) / ((double)k * dt);
        else
            omega_meas = x[1];
        if (noise)
            omega_meas += noise[k];

        e = omega_meas - omega_r[k];
        s = sat(e / delta);
        l.u0 = neg_k1 * sqrt(fabs(e)) * s + x[2] + accel_r[k];
        x[2] += dt * (neg_k2 * s);
        if (!rk4_step(rotor_field, &l, 2, k, x) || !isfinite(x[2]))
            return k;
        memcpy(states + 3 * (k + 1), x, sizeof x);
    }
    return n_steps;
}

/* The CSV writer: every double as CPython's repr writes it.  Ryu (U. Adams,
   "Ryu: fast float-to-string conversion", PLDI 2018) finds the shortest
   decimal that reads back as the double and, among those, the nearest to it.
   Its tables come from the caller, as (low, high) word pairs of 125-bit
   powers of five: pow5_inv[i] = 2^(bitlen(5^i) - 1 + 125) / 5^i + 1 for
   i < 342, and pow5[i] = the top 125 bits of 5^i for i < 326. */

__extension__ typedef unsigned __int128 uint128;

/* bitlen(5^e), for 0 <= e <= 3528 */
static int32_t pow5_bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650, and floor(log10(5^e)) for 0 <= e <= 2620 */
static uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

static uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

/* Whether 5^p divides value, value > 0: multiplying by 5's inverse mod 2^64
   leaves a multiple of 5 at most (2^64 - 1) / 5. */
static int divisible_by_pow5(uint64_t value, uint32_t p)
{
    for (uint32_t i = 0; i < p; i++) {
        value *= UINT64_C(14757395258967641293);
        if (value > UINT64_C(3689348814741910323))
            return 0;
    }
    return 1;
}

/* (m * mul) >> j for a table entry mul = {low, high} and 64 <= j < 128 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const uint128 low = (uint128)m * mul[0], high = (uint128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* Ryu's d2d: the digits of the finite nonzero double of bit pattern `bits`,
   sign ignored, and *exponent, so that it reads digits * 10^exponent. */
static uint64_t shortest(uint64_t bits, const uint64_t *pow5_inv, const uint64_t *pow5,
                         int32_t *exponent)
{
    const uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    const int32_t biased = (int32_t)((bits >> 52) & 0x7ff);
    /* the double is m2 * 2^(e2 + 2); two more bits place the interval's bounds */
    const int32_t e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? fraction | (UINT64_C(1) << 52) : fraction;
    const int even = (m2 & 1) == 0;  /* a bound reads back as the double */
    const uint64_t mv = 4 * m2;
    /* 0 at a power of two above the subnormals, whose lower neighbour is half as far */
    const uint64_t mm_shift = fraction != 0 || biased <= 1;
    const uint64_t *mul;
    uint64_t vr, vp, vm, output;
    int32_t e10, q, j, removed = 0;
    int vm_zeros = 0, vr_zeros = 0;

    /* vr, vp and vm: the double and its interval's bounds, scaled by 10^-e10 */
    if (e2 >= 0) {
        q = (int32_t)log10_pow2(e2) - (e2 > 3);
        e10 = q;
        j = -e2 + q + 125 + pow5_bits(q) - 1;
        mul = pow5_inv + 2 * q;
    } else {
        q = (int32_t)log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;  /* scaled up by 5^-e10 * 2^-e10 */
        j = q - (pow5_bits(-e10) - 125);
        mul = pow5 + 2 * -e10;
    }
    vr = mul_shift(mv, mul, j);
    vp = mul_shift(mv + 2, mul, j);
    vm = mul_shift(mv - 1 - mm_shift, mul, j);
    /* whether vm and vr are exact: the scaling dropped only zero digits */
    if (e2 >= 0) {
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = divisible_by_pow5(mv, (uint32_t)q);
            else if (even)
                vm_zeros = divisible_by_pow5(mv - 1 - mm_shift, (uint32_t)q);
            else
                vp -= divisible_by_pow5(mv + 2, (uint32_t)q);
        }
    } else if (q <= 1) {
        vr_zeros = 1;
        if (even)
            vm_zeros = mm_shift == 1;
        else
            vp--;
    } else if (q < 63) {
        vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
    }

    /* drop digits while a shorter decimal stays inside the interval */
    if (vm_zeros || vr_zeros) {
        uint64_t last = 0;  /* the last digit dropped from vr */
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = vr % 10;
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* exactly halfway: round to even */
        output = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *exponent = e10 + removed;
    return output;
}

/* Writes value as repr(value) writes it, at most 24 characters; returns the end. */
static char *write_double(char *p, double value, const uint64_t *pow5_inv, const uint64_t *pow5)
{
    char digits[17];
    uint64_t bits, m;
    int32_t exponent, n = 0, point;
    const char *d;

    memcpy(&bits, &value, sizeof bits);
    if (isnan(value)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (isinf(value) || value == 0.0) {
        memcpy(p, isinf(value) ? "inf" : "0.0", 3);
        return p + 3;
    }
    for (m = shortest(bits, pow5_inv, pow5, &exponent); m; m /= 10)
        digits[16 - n++] = (char)('0' + m % 10);
    d = digits + 17 - n;
    point = n + exponent;  /* the double is 0.d * 10^point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {
            memcpy(p, "0.000", (size_t)(2 - point));
            p += 2 - point;
            memcpy(p, d, (size_t)n);
            p += n;
        } else if (point < n) {
            memcpy(p, d, (size_t)point);
            p += point;
            *p++ = '.';
            memcpy(p, d + point, (size_t)(n - point));
            p += n - point;
        } else {
            memcpy(p, d, (size_t)n);
            p += n;
            memset(p, '0', (size_t)(point - n));
            p += point - n;
            memcpy(p, ".0", 2);
            p += 2;
        }
    } else {
        int32_t e = point - 1;
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(n - 1));
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    }
    return p;
}

/* Writes rows first .. first + n_rows - 1 of the n_columns columns as CSV,
   each value as write_double writes it, into out, which holds 25 bytes per
   value.  Returns the number of bytes written. */
int64_t format_rows(const double *const *columns, int64_t n_columns, int64_t first,
                    int64_t n_rows, const uint64_t *pow5_inv, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t k = first; k < first + n_rows; k++) {
        for (int64_t c = 0; c < n_columns; c++) {
            p = write_double(p, columns[c][k], pow5_inv, pow5);
            *p++ = c + 1 < n_columns ? ',' : '\n';
        }
    }
    return p - out;
}
"""

#: The compile command after the compiler: flags that keep the bits (no FMA
#: contraction, no fast-math, no -march), the source on stdin, and libm.
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99", "-ffp-contract=off",
                 "-x", "c", "-", "-lm")
#: The C compiler command; None is the one the interpreter was built with.
_KERNEL_CC: str | None = None
#: Where the built kernel is kept: one file per interpreter ABI, the last one built.
_KERNEL_DIR = Path(__file__).resolve().parent / "__pycache__"

_kernel = None  # the loaded library, or the RuntimeError its build raised


def _rk4_kernel():
    """The compiled kernel library, built or loaded on the first call in the process.

    Its four functions ``rk4_loop``, ``motor_loop``, ``sampled_motor_loop``
    and ``format_rows`` (the CSV writer of :func:`write_csv`) are typed for
    ``ctypes``; each takes its arrays as addresses.

    The library is cached as ``_KERNEL_DIR/rk4_kernel-<sha256><EXT_SUFFIX>``,
    keyed by the source, the compile command and the interpreter's
    ``EXT_SUFFIX``, so a later process loads it without running the compiler.
    A build writes a uniquely named file and renames it into place, so
    processes that start on a cold cache each build and all succeed; it then
    removes the cache's other kernels of this ``EXT_SUFFIX``, which an earlier
    source or command left, and keeps other interpreters' kernels.  Where the
    cache cannot be written, the process builds into a private temporary
    directory.  A failed build raises RuntimeError, naming the command with
    the compiler's stderr, and every later call raises it again without a
    rebuild.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _load_kernel()
        except RuntimeError as exc:
            _kernel = exc
    if isinstance(_kernel, RuntimeError):
        raise _kernel.with_traceback(None)
    return _kernel


def _load_kernel():
    """The library from the cache, built into it first if absent; see :func:`_rk4_kernel`."""
    import ctypes
    import hashlib
    import shlex
    import sysconfig
    import tempfile

    cc = _KERNEL_CC or sysconfig.get_config_var("CC")
    if not cc:
        raise RuntimeError("integrate needs a C compiler to build its RK4 kernel, and this "
                           "interpreter names none (sysconfig CC is unset)")
    command = [*shlex.split(cc), *_KERNEL_FLAGS]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256("\0".join([_KERNEL_SOURCE, shlex.join(command), suffix]).encode())
    name = f"rk4_kernel-{key.hexdigest()}{suffix}"
    try:
        _KERNEL_DIR.mkdir(exist_ok=True)
        path = _KERNEL_DIR / name
        if not path.exists():
            _build(command, path)
            for stale in _KERNEL_DIR.glob(f"rk4_kernel-*{suffix}"):
                if stale != path:
                    stale.unlink(missing_ok=True)
        library = ctypes.CDLL(str(path))
    except OSError:  # the cache cannot be written or read: build for this process only
        with tempfile.TemporaryDirectory(prefix="twistlab-kernel-") as private:
            path = Path(private) / name
            _build(command, path)
            library = ctypes.CDLL(str(path))  # the mapped library outlives its file
    double, pointer, count = ctypes.c_double, ctypes.c_void_p, ctypes.c_int64
    law, steps = [double] * 4, [count, pointer]  # -k1, -k2, delta, dt; n_steps, states
    motor = [pointer, count]  # model, n_harmonics
    for function, argtypes in (
            (library.rk4_loop, law + [pointer] * 3 + steps),
            (library.motor_loop, law + motor + [pointer] * 6 + steps),
            (library.sampled_motor_loop,
             law + motor + [pointer] * 2 + [double, count] + [pointer] * 2 + steps),
            (library.format_rows, [pointer] + [count] * 3 + [pointer] * 3)):
        function.argtypes = argtypes
        function.restype = count
    return library


def _build(command: list[str], path: Path) -> None:
    """Compile the kernel source to ``path`` through a uniquely named file in its directory."""
    import shlex
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp")
    os.close(fd)
    argv = [*command, "-o", tmp]
    try:
        try:
            done = subprocess.run(argv, input=_KERNEL_SOURCE, capture_output=True, text=True)
        except OSError as exc:  # no such compiler
            raise RuntimeError(f"building the RK4 kernel failed: {shlex.join(argv)}: {exc}") from None
        if done.returncode != 0:
            raise RuntimeError(f"building the RK4 kernel failed: {shlex.join(argv)} exited with "
                               f"status {done.returncode}:\n{done.stderr}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def detect_crossings(traj: Trajectory, layer_width: float = 0.0) -> list[tuple[float, int]]:
    """Linear-interpolated zero crossings of ``x1``, as (time, direction).

    ``direction`` is the sign of ``x1`` after the crossing.  Crossing
    clusters whose intermediate samples stay inside the boundary layer
    (|value| < layer_width for more than one step) are coalesced into a
    single event: that chatter is a regularization artifact, not cycle
    structure.  With the default width 0 every sign change counts.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    values = traj.x1
    t = traj.t

    # bracketing pairs: consecutive nonzero samples of opposite sign (zeros
    # and NaN carry no sign and are skipped)
    nz = np.flatnonzero((values > 0.0) | (values < 0.0))
    flip = np.flatnonzero((values[nz[1:]] > 0.0) != (values[nz[:-1]] > 0.0))
    left, right = nz[flip], nz[flip + 1]
    va, vb = values[left], values[right]
    # root of the linear interpolant between the bracketing samples
    frac = va / (va - vb)
    t_cross = t[left] + frac * (t[right] - t[left])
    raw = list(zip(t_cross.tolist(), np.where(vb > 0.0, 1, -1).tolist(),
                   left.tolist(), right.tolist()))

    if not raw or layer_width <= 0.0:
        return [(tc, dirn) for tc, dirn, _, _ in raw]

    # merge consecutive crossings whose whole span stays inside the layer:
    # such a dwell lasts more than one step and is chatter, not structure
    events: list[tuple[float, int]] = []
    group_start = 0
    for j in range(1, len(raw) + 1):
        if j < len(raw):
            span = values[raw[j - 1][2]:raw[j][3] + 1]
            if np.all(np.abs(span) < layer_width):
                continue
        events.append((raw[group_start][0], raw[j - 1][1]))
        group_start = j
    return events
