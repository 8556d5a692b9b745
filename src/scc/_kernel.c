/* Native form of the per-sample hot path: coordinate-descent passes and
 * the support-restricted dictionary step.
 *
 * Built by scc._native with -O2 -ffp-contract=off and loaded through
 * ctypes.  The results are bit-identical to the Python loops in
 * scc.lasso._cd_pass and scc.dictionary._sgd_inplace:
 *
 *   - every inner product goes through the cblas_ddot that numpy calls
 *     (the pointer is handed in by scc_init), and is taken as
 *     0.0 + ddot(...), exactly as numpy's DOUBLE_dot accumulates it;
 *   - every other operation is one correctly rounded IEEE operation, in
 *     numpy's order: r[i] - delta * col[i] is a product and then a
 *     difference, never a fused multiply-add, which is why the source
 *     must not be built with -ffast-math or floating-point contraction.
 *
 * Atoms are the columns of a column-major p x m matrix: atom j starts at
 * atoms + j * p.  Every array is contiguous.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);

static ddot_fn ddot;

void scc_init(ddot_fn f)
{
    ddot = f;
}

/* One sweep over coords[0..n) (all m atoms in order when coords is NULL);
 * z and r = x - D z are updated in place.  Returns the largest absolute
 * coordinate change.  Mirrors lasso._cd_pass. */
static double cd_pass(int64_t p, const double *atoms, const int64_t *coords, int64_t n,
                      double *z, double *r, double lam)
{
    double max_delta = 0.0;
    for (int64_t k = 0; k < n; k++) {
        int64_t j = coords ? coords[k] : k;
        const double *col = atoms + j * p;
        double old = z[j];
        double b = (0.0 + ddot(p, r, 1, col, 1)) + old;
        double new;
        if (b > lam)
            new = b - lam;
        else if (b < -lam)
            new = b + lam;
        else if (old != 0.0)
            new = 0.0;
        else
            continue; /* a zero coordinate that stays in the dead zone */
        if (new != old) {
            double delta = new - old;
            z[j] = new;
            for (int64_t i = 0; i < p; i++)
                r[i] -= delta * col[i];
            if (fabs(delta) > max_delta)
                max_delta = fabs(delta);
        }
    }
    return max_delta;
}

/* The cheap encoder: one full pass, then steps - 1 passes over the
 * support, which only ever shrinks.  z (length m) holds the warm start on
 * entry and the code on exit; support receives the final support in
 * ascending order.  Returns its length.  Mirrors lasso.encode_scc. */
int64_t scc_encode(int64_t p, int64_t m, const double *atoms, double *z, double *r, double lam,
                   int64_t steps, int64_t *support)
{
    int64_t nnz = 0;
    cd_pass(p, atoms, NULL, m, z, r, lam);
    for (int64_t j = 0; j < m; j++)
        if (z[j] != 0.0)
            support[nnz++] = j;
    for (int64_t s = 1; s < steps; s++) {
        int64_t kept = 0;
        cd_pass(p, atoms, support, nnz, z, r, lam);
        for (int64_t k = 0; k < nnz; k++)
            if (z[support[k]] != 0.0)
                support[kept++] = support[k];
        nnz = kept;
    }
    return nnz;
}

/* Full passes from the given z and r until the largest change of a pass
 * drops below tol.  Returns the number of passes made, or -1 if none of
 * max_passes did.  Mirrors lasso._finish. */
int64_t scc_cd_to_tol(int64_t p, int64_t m, const double *atoms, double *z, double *r, double lam,
                      double tol, int64_t max_passes)
{
    for (int64_t t = 1; t <= max_passes; t++)
        if (cd_pass(p, atoms, NULL, m, z, r, lam) < tol)
            return t;
    return -1;
}

/* Atom indices[k] gains steps[k] * residual and is projected back onto
 * the unit ball.  Mirrors dictionary._sgd_inplace. */
void scc_sgd(int64_t p, double *atoms, int64_t nnz, const int64_t *indices, const double *steps,
             const double *residual)
{
    for (int64_t k = 0; k < nnz; k++) {
        double *col = atoms + indices[k] * p;
        double step = steps[k];
        for (int64_t i = 0; i < p; i++)
            col[i] += step * residual[i];
        double n2 = 0.0 + ddot(p, col, 1, col, 1);
        if (n2 > 1.0) {
            double norm = sqrt(n2);
            for (int64_t i = 0; i < p; i++)
                col[i] /= norm;
        }
    }
}
