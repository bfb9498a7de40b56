"""The angle route's integrator: the sixth-order Magnus scheme on three
Gauss-Legendre nodes (Blanes, Casas & Ros, BIT 40, 434 (2000); Iserles &
Norsett, Phil. Trans. R. Soc. A 357, 983 (1999)) for the linear so(3)
equation dn/dt = A(t) x n of a family of unit vectors.

Each step rotates every vector by Rodrigues' formula about its exponent, so
|n| = 1 to rounding, and a constant A is integrated exactly in one step
however far the vectors turn: the step is set by how fast A changes, not by
how fast n turns.  Alongside, each step gives the phases of the spin-1/2
lift of its rotation: its total phase in closed form, and the dynamical
phase B, whose rate h.n is linear in n, by the same scheme on the
generator of (n, B) together (:func:`_bracket`), so that B too is of
sixth order and exact under a constant A.  The step is controlled by step
doubling (Richardson) on both, and the profiles' kinks
(``params.breakpoints``) are step boundaries, as in :mod:`susyjc.quadrature`.
Vectors are component first, (3, ...), so that each component is one
contiguous array.  This is a module of its own, not part of
:mod:`susyjc.quadrature`, to keep every module's source small: the
interpreter's compile of a module without cached bytecode is the largest
transient of a fresh process's memory.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _SAFETY, _TOO_SMALL_STEP

# the Gauss-Legendre nodes of a step on [0, 1]
_ROOT15 = math.sqrt(15.0)
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * _ROOT15 / 10.0
_RICHARDSON = 2.0**6 - 1.0  # sixth order: a step's error over its two halves', less one
_MOST_PIECES = 16  # most pieces that one round splits a rejected step into
# most vector evaluations (profile evaluations times members) of one
# integration, 31 times the most that the tests and the benchmark's
# workloads take (33525)
_WORK_BUDGET = 1 << 20
# most (time, vector) pairs per vectorized pass: its (3, n, M) arrays stay
# at 48 KiB, far under the size at which a temporary costs a fresh mapping
_CHUNK = 1 << 11


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b for (3, ...) vectors of one shape."""
    out = np.empty(a.shape)
    np.multiply(a[1], b[2], out=out[0])
    out[0] -= a[2] * b[1]
    np.multiply(a[2], b[0], out=out[1])
    out[1] -= a[0] * b[2]
    np.multiply(a[0], b[1], out=out[2])
    out[2] -= a[1] * b[0]
    return out


def _bracket(x, y):
    """The commutator [x, y] of so(3) on (3, ...) generators a, and on
    (6, ...) ones (a, w) of the vector and its dynamical phase together: the
    generator [[a x, 0], [w^T, 0]] of (n, B), which obeys n' = a x n and
    B' = w.n, and whose commutator is (a1 x a2, a1 x w2 - a2 x w1)."""
    turn = _cross(x[:3], y[:3])
    if x.shape[0] == 3:
        return turn
    return np.concatenate([turn, _cross(x[:3], y[3:]) - _cross(y[:3], x[3:])])


def _moments(fields, tau):
    """(alpha1, alpha2, alpha3): tau times the Taylor coefficients of the
    generator about the step's midpoint, in units of the step, from
    ``fields`` (3, 3 nodes, ...), its values at the Gauss nodes; ``tau``
    broadcasts against the trailing axes."""
    f1, f2, f3 = fields[:, 0], fields[:, 1], fields[:, 2]
    odd, even = f3 - f1, f3 - 2.0 * f2 + f1
    if not (odd.any() or even.any()):  # a constant generator (a steady run's dense samples)
        return tau * f2, odd, even
    return tau * f2, ((_ROOT15 / 3.0) * tau) * odd, ((10.0 / 3.0) * tau) * even


def _lift(moments, tau, shift):
    """The (6, ...) moments of the generator of (n, B) from the vectors'
    (3, ...) moments: w = (A - shift z)/2 is the lab frame's dynamical rate,
    B' = h.n, for vectors in a frame that turns at ``shift`` about z."""
    a1, a2, a3 = moments
    w1 = 0.5 * a1
    w1[2] -= (0.5 * shift) * tau
    return [np.concatenate([a, w]) for a, w in ((a1, w1), (a2, 0.5 * a2), (a3, 0.5 * a3))]


def _exponent(a1, a2, a3):
    """The sixth-order Magnus exponent of one step from its moments, (3, ...)
    or (6, ...) (:func:`_bracket`)."""
    if not (a2.any() or a3.any()):  # a constant generator: the exponent is exact, bit for bit
        return a1
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _half_angle(omega):
    """(cos(a/2), sin(a/2)/a) of rotations by a = |omega|, the second 1/2 at
    a = 0: exp(-i omega.sigma/2) is the unit quaternion (cos(a/2),
    omega sin(a/2)/a)."""
    angle = np.sqrt(_dot(omega, omega))
    half = 0.5 * angle
    ratio = np.divide(np.sin(half), angle, out=np.full(angle.shape, 0.5), where=angle > 0.0)
    return np.cos(half), ratio


def _rotate(omega, v, half):
    """Rodrigues' formula: v rotated about ``omega`` by the angle |omega|,
    given ``half`` = :func:`_half_angle` of omega."""
    cos_half, ratio = half
    turned = _cross(omega, v)
    # sin(a)/a = 2 ratio cos(a/2) and (1 - cos a)/a^2 = 2 ratio^2
    return v + (2.0 * ratio * cos_half) * turned + (2.0 * ratio * ratio) * _cross(omega, turned)


def _dynamical_row(exponent, half):
    """u, (3, ...), such that a step of (6, ...) ``exponent`` (a, w) from the
    vector n adds u.n to B, given ``half`` = :func:`_half_angle` of a: the
    exponential of [[a x, 0], [w^T, 0]] adds w.(int_0^1 R(s a) ds) n, where
    int_0^1 R(s a) ds = 1 + (1 - cos |a|)/|a|^2 a x + (|a| - sin |a|)/|a|^3 a x a x:
    u is that matrix's transpose applied to w."""
    a, w = exponent[:3], exponent[3:]
    cos_half, ratio = half
    square = _dot(a, a)
    # (|a| - sin |a|)/|a|^3 = (1 - 2 ratio cos(a/2))/|a|^2, 1/6 to 1e-10 for |a| <= 1e-4
    cubic = np.full(square.shape, 1.0 / 6.0)
    np.divide(1.0 - 2.0 * ratio * cos_half, square, out=cubic, where=square > 1e-8)
    turned = _cross(a, w)
    return w - (2.0 * ratio * ratio) * turned + cubic * _cross(a, turned)


def _rotations(omegas):
    """The (..., 3, 3) matrices of :func:`_rotate` for (3, ...) exponents."""
    cos_half, ratio = _half_angle(omegas)
    s, c = 2.0 * ratio * cos_half, 2.0 * ratio * ratio
    x, y, z = omegas
    return np.stack(
        [
            np.stack([1.0 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y], -1),
            np.stack([c * x * y + s * z, 1.0 - c * (x * x + z * z), c * y * z - s * x], -1),
            np.stack([c * x * z - s * y, c * y * z + s * x, 1.0 - c * (x * x + y * y)], -1),
        ],
        -2,
    )


def _compose(p, q):
    """The (4, ...) quaternion of q's rotation followed by p's."""
    p0, pv, q0, qv = p[0], p[1:], q[0], q[1:]
    return np.concatenate([(p0 * q0 - _dot(pv, qv))[None], p0 * qv + q0 * pv + _cross(pv, qv)])


def _total_phase(tau, omega, half, a, shift):
    """dB + dG, modulo 2 pi, of Magnus steps of length tau (...,) from a:
    -arg <chi(b)| U |chi(a)>, the phase of the spin-1/2 lift U = exp(-i
    omega.sigma/2) = q0 - i q.sigma of the step to b = R(omega) a, in the
    gauge chi(n) = (cos th/2, -sin th/2 e^{-i phi}) = (c, (x + i y)/(2 c)),
    c = cos th/2, less shift tau / 2 for a frame that turns at ``shift``
    about z, for the lab frame's phases.  chi(b)'s upper component is real
    and positive, so the phase is -arg of U chi(a)'s, times 2 c: that is
    (q0 - i q3)(1 + z) - (q2 + i q1)(x + i y).  At the south pole, the
    gauge's pole, the phase is undefined (atan2 of zeros).
    """
    cos_half, ratio = half
    q1, q2, q3 = ratio * omega
    x, y, z = a
    lift = 1.0 + z
    spin = np.arctan2(q3 * lift + q1 * x + q2 * y, cos_half * lift - q2 * x + q1 * y)
    return spin - 0.5 * shift * tau[..., None]


def _slices(size: int, members: int) -> list:
    """Consecutive slices of ``size`` items, each under _CHUNK with ``members`` vectors."""
    step = max(1, _CHUNK // members)
    return [slice(lo, lo + step) for lo in range(0, size, step)]


class MagnusSolution:
    """:func:`magnus`'s accepted steps and their dense output.

    ``times`` are the step boundaries, ascending, both ends included;
    ``states`` (len(times), 5M) the states there, time first: the M vectors'
    x's, y's and z's, then the M dynamical phases B and the M geometric
    phases G of the spin-1/2 lift (G modulo 2 pi, see :func:`_total_phase`);
    ``nfev`` the times at which the generator was evaluated.  Calling it at
    scalar t gives (5M,), over an array of N times
    (N, 5M): each time t takes one Magnus sub-step from the start of its
    step to t, with three fresh evaluations of the generator, so every
    sample keeps the scheme's order.  A time on a step boundary belongs to
    the step that starts there (a knot takes the state the solver restarted
    from), the last time to the last step.  :meth:`spin` gives the vectors
    and B + G alone, without B.  ``settled`` is the smallest tolerance down
    to which :func:`magnus` takes these same steps: the largest error
    estimate of its steps, or its own tolerance if it rejected any.
    """

    def __init__(self, field, shift, times, states, nfev, settled):
        self.times = times
        self.states = states
        self.nfev = nfev
        self.settled = settled
        self._field = field
        self._shift = shift

    def __call__(self, t):
        return self._sample(t, True)

    def spin(self, t):
        """The vectors and their total phases B + G at t, (4M,) or (N, 4M)."""
        return self._sample(t, False)

    def _sample(self, t, dynamical: bool):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        members = self._shift.size
        idx = np.searchsorted(self.times, t, side="right") - 1
        np.clip(idx, 0, self.times.size - 2, out=idx)
        out = np.empty((t.size, (5 if dynamical else 4) * members))
        for part in _slices(t.size, members):  # each part's temporaries go with its call
            out[part] = self._substep(t[part], idx[part], dynamical)
        return out[0] if scalar else out

    def _substep(self, t, idx, dynamical: bool):
        """The states at times t, (n, 5M) or (n, 4M), each by one sub-step
        from the start of its step idx."""
        members = self._shift.size
        start, state = self.times[idx], self.states[idx]
        tau = t - start
        fields = self._field(start + np.multiply.outer(_GAUSS, tau))  # (3, 3 nodes, n, M)
        moments = _moments(fields, tau[:, None])
        if dynamical:
            moments = _lift(moments, tau[:, None], self._shift)
        exponent = _exponent(*moments)
        omega = exponent[:3]
        half = _half_angle(omega)
        vectors = state[:, : 3 * members].reshape(-1, 3, members)
        a = np.ascontiguousarray(vectors.transpose(1, 0, 2))  # (3, n, M)
        b = _rotate(omega, a, half).transpose(1, 0, 2).reshape(-1, 3 * members)
        total = _total_phase(tau, omega, half, a, self._shift)
        b_then, g_then = np.split(state[:, 3 * members :], 2, axis=1)
        if not dynamical:
            return np.hstack([b, b_then + g_then + total])
        db = _dot(_dynamical_row(exponent, half), a)
        return np.hstack([b, b_then + db, g_then + (total - db)])


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows is a non-finite estimate
def magnus(field, window, vectors, kinks, tol: float, failure, shift) -> MagnusSolution:
    """Integrate dn/dt = A(t) x n for M unit vectors over ``window`` (t0 < t1)
    by the sixth-order Magnus scheme, restarted at every kink, with the
    dynamical phases B alongside.

    ``field(t)`` maps an array of times of any shape S to the generators A,
    (3,) + S + (M,), component first; ``vectors`` is the (3, M) start;
    ``shift`` (M,) is the rate at which each vector's frame turns about z,
    which the solution's phases correct for (:class:`MagnusSolution`).  Each
    candidate step is taken whole and as two halves (nine evaluations); the
    halves are kept when the largest difference of the two, over the
    members, in the rotation or in B's increment from any unit vector, over
    2^6 - 1 (Richardson's estimate of the halves' error), is within ``tol``,
    and a rejected step is split by its estimate into 2 to 16 pieces that
    the next round tries, all of a round's candidates in vectorized passes.
    The first candidate of each segment between kinks is the whole segment:
    a generator constant in time is integrated exactly in one candidate.  A
    piece under ten float spacings of its start, or a non-finite generator,
    exponent or estimate, raises ``failure(message, time)`` at that piece's
    start, and spending the _WORK_BUDGET raises it at the time reached, the
    earliest start still queued.
    """
    t0, t1 = float(window[0]), float(window[1])
    members = len(shift)
    edges = np.concatenate([[t0], kinks, [t1]])
    starts, ends = edges[:-1], edges[1:]
    # the split pieces, queued behind starts: appending them to starts on
    # every pass would copy the whole queue each time
    later = []
    kept, nfev, settled = [], 0, 0.0
    batch = max(1, _CHUNK // (9 * members))  # candidates per vectorized pass
    while starts.size or later:
        if not starts.size:
            starts, ends = (np.concatenate(pieces) for pieces in zip(*later))
            later = []
        if nfev * members >= _WORK_BUDGET:
            message = f"work budget spent: {nfev} profile evaluations for {members} vectors"
            pending = [starts] + [piece for piece, _ in later]
            raise failure(message, float(min(piece.min() for piece in pending)))
        now, last = starts[:batch], ends[:batch]
        starts, ends = starts[batch:], ends[batch:]
        mids = now + 0.5 * (last - now)
        lefts, rights = np.stack([now, now, mids]), np.stack([last, mids, last])
        taus = rights - lefts  # (3 pieces: the whole and its halves, K)
        fields = field(lefts + np.multiply.outer(_GAUSS, taus))  # (3, 3 nodes, 3, K, M)
        nfev += 3 * taus.size
        moments = _lift(_moments(fields, taus[..., None]), taus[..., None], shift)
        exponents = _exponent(*moments)  # (6, 3, K, M)
        omegas = exponents[:3]
        cos_half, ratio = _half_angle(omegas)
        rows = _dynamical_row(exponents, (cos_half, ratio))
        q = np.concatenate([cos_half[None], ratio * omegas])  # (4, 3, K, M) quaternions
        gap = _compose(q[:, 2], q[:, 1]) - q[:, 0]
        # B over the halves from n is u1.n + u2.R1 n = (u1 + R1^T u2).n
        back = _rotate(-omegas[:, 1], rows[:, 2], (cos_half[1], ratio[1]))
        drift = rows[:, 1] + back - rows[:, 0]
        spread = np.maximum(4.0 * np.sum(gap * gap, axis=0), _dot(drift, drift))
        errors = np.sqrt(np.max(spread, axis=-1)) / _RICHARDSON
        broken = ~np.isfinite(errors)
        if broken.any():
            message = "non-finite step (generator, exponent or estimate)"
            raise failure(message, float(now[broken].min()))
        ok = errors <= tol
        kept.append((lefts[1:, ok], taus[1:, ok], omegas[:, 1:, ok], rows[:, 1:, ok]))
        if ok.all():
            settled = max(settled, float(errors.max()))
            continue
        settled = tol
        bad = ~ok
        excess = errors[bad] / tol
        pieces = np.clip(np.ceil(excess ** (1 / 7) / _SAFETY), 2, _MOST_PIECES).astype(int)
        first, final = now[bad], last[bad]
        small = (final - first) / pieces < 10.0 * np.spacing(np.abs(first))
        if small.any():
            raise failure(_TOO_SMALL_STEP, float(first[small].min()))
        first, final, k = (np.repeat(x, pieces) for x in (first, final, pieces))
        j = np.arange(k.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        # neighbouring pieces share their boundary, bit for bit
        split_starts = first + (final - first) * (j / k)
        split_ends = np.where(j == k - 1, final, first + (final - first) * ((j + 1) / k))
        later.append((split_starts, split_ends))
    lefts = np.concatenate([piece[0].ravel() for piece in kept])
    order = np.argsort(lefts, kind="stable")
    lefts = lefts[order]
    taus = np.concatenate([piece[1].ravel() for piece in kept])[order]
    omegas, rows = (
        np.concatenate([piece[i].reshape(3, -1, members) for piece in kept], axis=1)[:, order]
        for i in (2, 3)
    )
    steps = lefts.size
    chain = np.empty((steps + 1, members, 3, 1))  # the vectors at the boundaries
    chain[0, :, :, 0] = np.transpose(vectors)
    rotations = _rotations(omegas)  # (steps, M, 3, 3)
    for i in range(steps):
        np.matmul(rotations[i], chain[i], out=chain[i + 1])
    chain = chain[..., 0].transpose(2, 0, 1)  # (3, steps + 1, M)
    a = chain[:, :-1]
    phases = np.zeros((2, steps + 1, members))
    phases[0, 1:] = _dot(rows, a)
    phases[1, 1:] = _total_phase(taus, omegas, _half_angle(omegas), a, shift) - phases[0, 1:]
    np.cumsum(phases, axis=1, out=phases)
    vectors_out = chain.transpose(1, 0, 2).reshape(steps + 1, 3 * members)
    states = np.concatenate([vectors_out, phases[0], phases[1]], axis=1)
    shift = np.asarray(shift, dtype=float)
    return MagnusSolution(field, shift, np.append(lefts, t1), states, nfev, settled)
