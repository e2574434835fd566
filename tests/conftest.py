import numpy as np
import pytest

from hspatch import GeometricPatch, HsControls, HsPatchInput, project_tangents

# Hermite control matrices of the coordinate functions u, v and u*v.
# Layout: [[corner values | d/dv], [d/du | twists]] per the block convention.
UV_X = [[0, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [1, 1, 0, 0]]
UV_Y = [[0, 1, 1, 1],
        [0, 1, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0]]
UV_Z = [[0, 0, 0, 0],
        [0, 1, 1, 1],
        [0, 1, 1, 1],
        [0, 1, 1, 1]]

# 12-control input of z = u*v: corners, then v-tangents, then u-tangents.
UV_Z_CONTROLS = HsControls(corners=(0, 0, 0, 1), tangents=(0, 0, 1, 1, 0, 1, 0, 1))

# Flat plane with one corner lifted to z=1, all tangents zero: the classic
# input that no single constrained patch can represent (residual 4).
LIFTED_CORNER = HsControls(corners=(0, 0, 0, 1), tangents=(0,) * 8)


def assert_same_text(got: str, want: str):
    """assert got == want, reported by the first differing line: pytest's own diff of
    two texts of hundreds of KB runs for minutes."""
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]), min(len(g), len(w)))
        pytest.fail(f"texts differ first at line {k + 1} of {len(g)} vs {len(w)}: "
                    f"{g[k:k + 1]!r} != {w[k:k + 1]!r}")


@pytest.fixture
def uv_patch() -> GeometricPatch:
    return GeometricPatch(UV_X, UV_Y, UV_Z)


def e11_matrix() -> np.ndarray:
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    return m


def hermite_from_monomials(mono) -> np.ndarray:
    """Oracle: Hermite control matrix of a bicubic given by power coefficients.

    mono[p][q] multiplies u^p v^q.  Corner values and derivatives are obtained
    by direct polynomial evaluation, independent of the kernel's basis
    matrices.
    """
    mono = np.asarray(mono, dtype=float)

    def f(u, v, du=0, dv=0):
        total = 0.0
        for p in range(4):
            for q in range(4):
                if du:
                    cu = 0.0 if p == 0 else p * u ** (p - 1)
                else:
                    cu = u ** p
                if dv:
                    cv = 0.0 if q == 0 else q * v ** (q - 1)
                else:
                    cv = v ** q
                total += mono[p, q] * cu * cv
        return total

    m = np.zeros((4, 4))
    m[0, 0], m[0, 1] = f(0, 0), f(0, 1)
    m[1, 0], m[1, 1] = f(1, 0), f(1, 1)
    m[0, 2], m[0, 3] = f(0, 0, dv=1), f(0, 1, dv=1)
    m[1, 2], m[1, 3] = f(1, 0, dv=1), f(1, 1, dv=1)
    m[2, 0], m[2, 1] = f(0, 0, du=1), f(0, 1, du=1)
    m[3, 0], m[3, 1] = f(1, 0, du=1), f(1, 1, du=1)
    m[2, 2], m[2, 3] = f(0, 0, du=1, dv=1), f(0, 1, du=1, dv=1)
    m[3, 2], m[3, 3] = f(1, 0, du=1, dv=1), f(1, 1, du=1, dv=1)
    return m


def eval_monomials(mono, u, v) -> float:
    mono = np.asarray(mono, dtype=float)
    return float(sum(mono[p, q] * u ** p * v ** q for p in range(4) for q in range(4)))


def random_controls(rng, span: float = 2.0) -> HsControls:
    vals = rng.uniform(-span, span, size=12)
    return HsControls.from_flat(vals)


def random_feasible_controls(rng, span: float = 2.0) -> HsControls:
    return project_tangents(random_controls(rng, span))


def random_feasible_input(rng, span: float = 2.0) -> HsPatchInput:
    return HsPatchInput(
        x=random_feasible_controls(rng, span),
        y=random_feasible_controls(rng, span),
        z=random_feasible_controls(rng, span),
    )
