"""First-order upwind finite differences, kept as an independent cross-check.

The scheme shares nothing with the characteristics machinery beyond the
problem data: explicit Euler in time, backward differences in space (valid
because v > 0 means information always travels rightward), inflow cell
updated from the boundary signal.  It converges at first order only, so
agreement within a few grid spacings - improving under refinement - is
strong evidence that the characteristic solver integrates the right
equation.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, row_blocks
from .transport import SolutionField, TransportProblem

__all__ = ["OracleError", "upwind_solve"]


class OracleError(ValueError):
    pass


def upwind_solve(problem: TransportProblem, grid: Grid) -> SolutionField:
    """March w_t + v w_x = a w + f with upwind differences.

    Enforces the CFL condition dt * max v <= dx; raises OracleError when the
    grid violates it rather than returning an unstable answer.
    """
    problem.validate(grid)
    xs = grid.xs
    times = grid.times
    dx = grid.dx
    lam = grid.dt / dx

    v_rows = problem.v.grid_rows(grid)
    cfl = lam * float(v_rows.max())
    if cfl > 1.0 + 1e-12:
        raise OracleError(
            f"CFL number {cfl:.6g} exceeds 1; refine dt below dx / max v")

    w = np.empty((grid.nt + 1, grid.nx))
    w[0] = np.asarray(problem.phi(xs), dtype=float)
    w[:, 0] = problem.b(times)
    blocks = zip(row_blocks(problem.coeffs.a, grid), row_blocks(problem.coeffs.f, grid))
    for (rows, a_block), (_, f_block) in blocks:
        for n, a_row, f_row in zip(range(rows.start, grid.nt), a_block, f_block):
            row = w[n]
            w[n + 1, 1:] = (row[1:]
                            - lam * v_rows[n, 1:] * (row[1:] - row[:-1])
                            + grid.dt * (a_row[1:] * row[1:] + f_row[1:]))
    return SolutionField(grid=grid, values=w, kind="w")
