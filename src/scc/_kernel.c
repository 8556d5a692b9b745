/* Native form of the hot paths: the whole stochastic epoch of the SCC
 * trainers (which, with the dictionary held fixed, also gives the cold
 * codes of a whole dataset), the CD oracle's codes of a whole dataset, the
 * dataset objective, and the per-sample coordinate-descent passes of the
 * cheap encoder.
 *
 * Built by scc._native with -O2 -ffp-contract=off and loaded through
 * ctypes.  The results are bit-identical to the Python loops in
 * scc.trainer._epoch_py, scc.metrics._terms_py and scc.lasso._cd_pass:
 *
 *   - every inner product goes through the cblas_ddot that numpy calls
 *     (the pointer is handed in by scc_init), and is taken as
 *     0.0 + ddot(...), exactly as numpy's DOUBLE_dot accumulates it;
 *   - a fresh residual x - D z calls numpy's cblas_dgemv on the gathered
 *     atoms with the arguments numpy's matmul passes, or takes numpy's
 *     dot and plain-loop routes where matmul takes them (see residual);
 *   - the penalty sum |z_j| follows numpy's pairwise summation order;
 *   - every other operation is one correctly rounded IEEE operation, in
 *     numpy's order: r[i] - delta * col[i] is a product and then a
 *     difference, never a fused multiply-add, which is why the source
 *     must not be built with -ffast-math or floating-point contraction.
 *
 * Atoms are the columns of a column-major p x m matrix: atom j starts at
 * atoms + j * p, and sample i of a p x n matrix at x + i * p.  Every
 * array is contiguous.
 */

#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                         int64_t lda, const double *x, int64_t incx, double beta, double *y,
                         int64_t incy);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_TRANS = 112 };

static ddot_fn ddot;
static dgemv_fn dgemv;

void scc_init(ddot_fn f, dgemv_fn g)
{
    ddot = f;
    dgemv = g;
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
 * ascending order.  Returns its length.  Mirrors lasso._encode_py. */
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
static int64_t scc_cd_to_tol(int64_t p, int64_t m, const double *atoms, double *z, double *r,
                             double lam, double tol, int64_t max_passes)
{
    for (int64_t t = 1; t <= max_passes; t++)
        if (cd_pass(p, atoms, NULL, m, z, r, lam) < tol)
            return t;
    return -1;
}

/* Codes of one pass over a dataset: code i is indices[start[i] ..
 * start[i] + length[i]) with its values; used entries of capacity are
 * taken.  Mirrors core._CodeStore. */
struct codes {
    int64_t *start, *length, *indices;
    double *values;
    int64_t capacity, used;
};

/* r = x - D z for the code (idx, val) of k entries, as numpy computes
 * x - D.atoms[:, idx] @ val: g receives the gathered atoms (p x k) and
 * y the product.  numpy's matmul takes its dot for p = 1 and its plain
 * loop, 0 + a * b, for k = 1; otherwise it calls gemv on the p x k
 * Fortran-ordered gather as a row-major k x p matrix, transposed. */
static void residual(int64_t p, const double *atoms, const double *x, int64_t k,
                     const int64_t *idx, const double *val, double *g, double *y, double *r)
{
    memcpy(r, x, p * sizeof *r);
    if (k == 0)
        return;
    if (p == 1) {
        for (int64_t j = 0; j < k; j++)
            g[j] = atoms[idx[j]];
        r[0] -= 0.0 + ddot(k, g, 1, val, 1);
    } else if (k == 1) {
        const double *col = atoms + idx[0] * p;
        for (int64_t i = 0; i < p; i++)
            r[i] -= 0.0 + col[i] * val[0];
    } else {
        for (int64_t j = 0; j < k; j++)
            memcpy(g + j * p, atoms + idx[j] * p, p * sizeof *g);
        dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, k, p, 1.0, g, p, val, 1, 0.0, y, 1);
        for (int64_t i = 0; i < p; i++)
            r[i] -= y[i];
    }
}

/* np.abs(v[0..n)).sum(), in numpy's DOUBLE_pairwise_sum order: eight
 * accumulators over blocks of at most 128 entries, halved on multiples
 * of eight above that. */
static double abs_sum(const double *v, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += fabs(v[i]);
        return res;
    }
    if (n <= 128) {
        double acc[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            acc[k] = fabs(v[k]);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                acc[k] += fabs(v[i + k]);
        double res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (; i < n; i++)
            res += fabs(v[i]);
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return abs_sum(v, half) + abs_sum(v + half, n - half);
}

/* The per-sample terms 0.5 r.r + lam sum |z_j| of the n samples x under
 * the codes c, r = x - D z fresh; g, y (p x m, p) and r (p) are work
 * space.  Mirrors metrics._terms_py. */
void scc_objective(int64_t p, int64_t n, const double *atoms, const double *x,
                   const struct codes *c, double lam, double *g, double *y, double *r,
                   double *terms)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t *idx = c->indices + c->start[i];
        const double *val = c->values + c->start[i];
        int64_t k = c->length[i];
        residual(p, atoms, x + i * p, k, idx, val, g, y, r);
        double penalty = lam * abs_sum(val, k);
        terms[i] = 0.5 * (0.0 + ddot(p, r, 1, r, 1)) + penalty;
    }
}

/* The state of one stochastic epoch; mirrors the arguments of
 * trainer._epoch_py.  h holds the curvature cells of the adaptive rule,
 * or is NULL for the natural rule a / (t + b), whose a is always > 0.
 * h NULL and a = 0 hold the dictionary fixed: the epoch only codes, moves
 * no atom and leaves t as it is (trainer._epoch_py with rate None). */
struct epoch {
    int64_t p, m, n, steps;
    double lam;
    double *atoms;        /* p x m, updated in place */
    const double *x;      /* p x n samples */
    const int64_t *order; /* the n visits */
    struct codes old, new;
    double *h;
    double a, b;
    int64_t t;
    double *z, *r, *g, *y; /* work space: m zeros, p, p x m, p */
    int64_t *support;      /* work space: m */
    int64_t next;          /* the first visit not yet made */
    double time_code, time_dict;
    int64_t bad; /* the cell found without curvature */
};

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Visits e->order[e->next ..] in turn.  Each visit computes the fresh
 * residual of the sample under its code of the previous epoch, encodes
 * it with scc_encode and appends the code to e->new; unless the
 * dictionary is held fixed, it then advances the rate and moves each
 * supported atom by its step times the residual onto the unit ball.
 * Returns 0 once every visit is made; 1, before a visit, when e->new has
 * no room for a code of m entries (grow it and call again); -1 when an
 * adaptive cell is not positive, with the first such cell in e->bad and
 * no atom moved for that sample. */
int64_t scc_epoch(struct epoch *e)
{
    int64_t p = e->p, m = e->m;
    double *z = e->z, *r = e->r;
    int64_t *support = e->support;
    for (; e->next < e->n; e->next++) {
        if (e->new.capacity - e->new.used < m)
            return 1;
        int64_t i = e->order[e->next];
        double t0 = now();
        const int64_t *idx = e->old.indices + e->old.start[i];
        const double *val = e->old.values + e->old.start[i];
        int64_t k = e->old.length[i];
        residual(p, e->atoms, e->x + i * p, k, idx, val, e->g, e->y, r);
        for (int64_t q = 0; q < k; q++)
            z[idx[q]] = val[q];
        int64_t nnz = scc_encode(p, m, e->atoms, z, r, e->lam, e->steps, support);
        int64_t *new_idx = e->new.indices + e->new.used;
        double *new_val = e->new.values + e->new.used;
        for (int64_t q = 0; q < nnz; q++) {
            new_idx[q] = support[q];
            new_val[q] = z[support[q]];
            z[support[q]] = 0.0; /* only the support is nonzero after a full pass */
        }
        e->new.start[i] = e->new.used;
        e->new.length[i] = nnz;
        e->new.used += nnz;
        double t1 = now();
        e->time_code += t1 - t0;
        if (!e->h && e->a == 0.0)
            continue; /* the dictionary held fixed: codes only */
        double rate = 0.0;
        if (e->h) {
            for (int64_t q = 0; q < nnz; q++)
                e->h[new_idx[q]] += new_val[q] * new_val[q];
            for (int64_t q = 0; q < nnz; q++)
                if (e->h[new_idx[q]] <= 0.0) {
                    e->bad = new_idx[q];
                    return -1;
                }
        } else {
            rate = e->a / ((double)e->t + e->b);
            e->t++; /* every visit advances t, an empty code too */
        }
        for (int64_t q = 0; q < nnz; q++) {
            double *col = e->atoms + new_idx[q] * p;
            double step = e->h ? new_val[q] / e->h[new_idx[q]] : rate * new_val[q];
            for (int64_t s = 0; s < p; s++)
                col[s] += step * r[s];
            double n2 = 0.0 + ddot(p, col, 1, col, 1);
            if (n2 > 1.0) {
                double norm = sqrt(n2);
                for (int64_t s = 0; s < p; s++)
                    col[s] /= norm;
            }
        }
        e->time_dict += now() - t1;
    }
    return 0;
}

/* The CD oracle's codes of the n samples x, in sample order, into c: each
 * sample starts from z = 0 and r = x and makes full passes with
 * scc_cd_to_tol.  z (m) and r (p) are work space.  Starts at sample i
 * and returns the first sample not coded: n once every sample is, or
 * earlier, when c has no room for a code of m entries (grow it and call
 * again); or -1 - i when sample i does not converge in max_passes
 * passes, with its z and r left as the passes left them.  Mirrors
 * lasso._oracle_py. */
int64_t scc_oracle_codes(int64_t p, int64_t m, int64_t n, const double *atoms, const double *x,
                         double lam, double tol, int64_t max_passes, int64_t i, struct codes *c,
                         double *z, double *r)
{
    for (; i < n; i++) {
        if (c->capacity - c->used < m)
            return i;
        memset(z, 0, m * sizeof *z);
        memcpy(r, x + i * p, p * sizeof *r);
        if (scc_cd_to_tol(p, m, atoms, z, r, lam, tol, max_passes) < 0)
            return -1 - i;
        int64_t *idx = c->indices + c->used;
        double *val = c->values + c->used;
        int64_t nnz = 0;
        for (int64_t j = 0; j < m; j++)
            if (z[j] != 0.0) {
                idx[nnz] = j;
                val[nnz++] = z[j];
            }
        c->start[i] = c->used;
        c->length[i] = nnz;
        c->used += nnz;
    }
    return n;
}
