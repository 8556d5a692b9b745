/* Native form of the hot paths: the whole stochastic epoch of the SCC
 * trainers (which, with the dictionary held fixed, also gives the cold
 * codes of a whole dataset, cheap or run to a tolerance as the CD oracle
 * runs them), the backtracking dictionary step of batch_train, the dataset
 * objective, and the per-sample coordinate-descent passes of the cheap
 * encoder.
 *
 * Built by scc._native_lib with -O2 -ffp-contract=off -falign-loops=64 and
 * loaded through ctypes.  The results are bit-identical to the Python loops
 * in scc.lasso._epoch_py, scc.dictionary._dense_py, scc.metrics._terms_py
 * and scc.lasso._cd_pass:
 *
 *   - every inner product goes through the cblas_ddot that numpy calls
 *     (the pointer is handed in by scc_init), and is taken as
 *     0.0 + ddot(...), exactly as numpy's DOUBLE_dot accumulates it;
 *   - every matrix product calls numpy's cblas_dgemm or cblas_dgemv with
 *     the arguments numpy's matmul passes for operands of that layout, or
 *     takes numpy's dot and plain-loop routes where matmul takes them (see
 *     matmul, and residual, which takes them for x - D z on its own);
 *   - sums over a whole contiguous array (the penalty sum |z_j|, the
 *     squared residuals of the batch step) follow numpy's pairwise
 *     summation order, and the column sums of a row-major matrix run down
 *     each column;
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
typedef void (*dgemm_fn)(int order, int transa, int transb, int64_t m, int64_t n, int64_t k,
                         double alpha, const double *a, int64_t lda, const double *b, int64_t ldb,
                         double beta, double *c, int64_t ldc);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_COL_MAJOR = 102, CBLAS_NO_TRANS = 111, CBLAS_TRANS = 112 };

static ddot_fn ddot;
static dgemv_fn dgemv;
static dgemm_fn dgemm;

void scc_init(ddot_fn f, dgemv_fn g, dgemm_fn h)
{
    ddot = f;
    dgemv = g;
    dgemm = h;
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

/* The per-sample encoder: full passes until one changes no coordinate by
 * tol or more, at most full of them, then steps - 1 passes over the
 * support, which only ever shrinks.  z (length m) holds the warm start on
 * entry and the code on exit; support receives the final support in
 * ascending order.  Returns its length, or -1 when tol > 0 and the last
 * full pass still moved a coordinate by tol or more (not settled).  The
 * cheap encoder is tol 0, full 1: exactly one full pass, never unsettled.
 * Mirrors lasso._encode_py. */
int64_t scc_encode(int64_t p, int64_t m, const double *atoms, double *z, double *r, double lam,
                   double tol, int64_t full, int64_t steps, int64_t *support)
{
    int64_t pass;
    for (pass = 1; pass <= full; pass++)
        if (cd_pass(p, atoms, NULL, m, z, r, lam) < tol)
            break;
    if (pass > full && tol > 0.0)
        return -1;
    int64_t nnz = 0;
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
 * lasso._epoch_py.  lam, tol, full and steps are scc_encode's.  h holds
 * the curvature cells of the adaptive rule, or is NULL for the natural
 * rule a / (t + b), whose a is always > 0.  h NULL and a = 0 hold the
 * dictionary fixed: the epoch only codes, moves no atom and leaves t as it
 * is (lasso._epoch_py with rate None). */
struct epoch {
    int64_t p, m, n, steps;
    double lam, tol;
    int64_t full;
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
 * no atom moved for that sample; -2 when a visit's full passes do not
 * settle, with e->next at that visit, nothing stored for it and its z
 * left as the passes left it.  Each phase is timed from the end of the
 * one before it, so that a training visit reads the clock once per phase;
 * with the dictionary held fixed every visit is code phase, and only the
 * call as a whole is timed. */
int64_t scc_epoch(struct epoch *e)
{
    int64_t p = e->p, m = e->m;
    double *z = e->z, *r = e->r;
    int64_t *support = e->support;
    double t0 = now();
    for (; e->next < e->n; e->next++) {
        if (e->new.capacity - e->new.used < m) {
            e->time_code += now() - t0;
            return 1;
        }
        int64_t i = e->order[e->next];
        const int64_t *idx = e->old.indices + e->old.start[i];
        const double *val = e->old.values + e->old.start[i];
        int64_t k = e->old.length[i];
        residual(p, e->atoms, e->x + i * p, k, idx, val, e->g, e->y, r);
        for (int64_t q = 0; q < k; q++)
            z[idx[q]] = val[q];
        int64_t nnz = scc_encode(p, m, e->atoms, z, r, e->lam, e->tol, e->full, e->steps, support);
        if (nnz < 0)
            return -2;
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
        if (!e->h && e->a == 0.0)
            continue; /* the dictionary held fixed: codes only */
        double t1 = now();
        e->time_code += t1 - t0;
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
        t0 = now();
        e->time_dict += t0 - t1;
    }
    e->time_code += now() - t0;
    return 0;
}

/* out = a @ b, an M x P row-major result, as numpy's matmul computes it for
 * the M x N matrix a with element strides (am, an) and the N x P matrix b
 * with (bn, bp), both contiguous (the stride along a dimension of length 1
 * is never read).  numpy calls dgemm when M, N and P all exceed 1, its dot
 * for a 1 x 1 result, dgemv for one row or one column of result with N > 1,
 * and otherwise its plain loop, 0 + a * b summed in order; dgemm and dgemv
 * get the order, transposes and leading dimensions numpy passes for that
 * layout: a row-major operand as is, a column-major one transposed. */
static void matmul(int64_t M, int64_t N, int64_t P, const double *a, int64_t am, int64_t an,
                   const double *b, int64_t bn, int64_t bp, double *out)
{
    if (M > 1 && N > 1 && P > 1) {
        dgemm(CBLAS_ROW_MAJOR, an == 1 ? CBLAS_NO_TRANS : CBLAS_TRANS,
              bp == 1 ? CBLAS_NO_TRANS : CBLAS_TRANS, M, P, N, 1.0, a, an == 1 ? am : an, b,
              bp == 1 ? bn : bp, 0.0, out, P);
    } else if (M == 1 && P == 1) {
        out[0] = 0.0 + ddot(N, a, an, b, bn);
    } else if (N > 1 && M == 1) {
        dgemv(bn == 1 ? CBLAS_COL_MAJOR : CBLAS_ROW_MAJOR, CBLAS_TRANS, N, P, 1.0, b,
              bn == 1 ? bp : bn, a, an, 0.0, out, 1);
    } else if (N > 1 && P == 1) {
        dgemv(an == 1 ? CBLAS_COL_MAJOR : CBLAS_ROW_MAJOR, CBLAS_TRANS, N, M, 1.0, a,
              an == 1 ? am : an, b, bn, 0.0, out, 1);
    } else {
        for (int64_t i = 0; i < M; i++)
            for (int64_t j = 0; j < P; j++) {
                double s = 0.0;
                for (int64_t k = 0; k < N; k++)
                    s += a[i * am + k * an] * b[k * bn + j * bp];
                out[i * P + j] = s;
            }
    }
}

/* r = a @ z - x, p x n row-major, for the p x m matrix a with element
 * strides (am, an), the column-major m x n codes z and the column-major
 * p x n samples x, as numpy computes atoms @ Z - X. */
static void residuals(int64_t p, int64_t m, int64_t n, const double *a, int64_t am, int64_t an,
                      const double *z, const double *x, double *r)
{
    matmul(p, m, n, a, am, an, z, 1, m, r);
    for (int64_t i = 0; i < p; i++)
        for (int64_t j = 0; j < n; j++)
            r[i * n + j] -= x[j * p + i];
}

/* 0.5 * (r * r).sum() / n of the p x n residuals r, which it squares in
 * place.  Mirrors dictionary._quadratic_term: the squares are never
 * negative, so abs_sum sums them in numpy's pairwise order. */
static double quadratic(double *r, int64_t p, int64_t n)
{
    for (int64_t i = 0; i < p * n; i++)
        r[i] *= r[i];
    return 0.5 * abs_sum(r, p * n) / (double)n;
}

/* g = (r @ z.T) / n, p x m row-major, for the residuals r of the atoms. */
static void gradient(int64_t p, int64_t m, int64_t n, const double *r, const double *z, double *g)
{
    matmul(p, n, m, r, n, 1, z, m, 1, g);
    for (int64_t k = 0; k < p * m; k++)
        g[k] /= (double)n;
}

/* batch_train's dictionary step, in place on the column-major p x m atoms,
 * for the column-major m x n codes z of the column-major p x n samples x.
 * Each of at most attempts tries the gradient step at rate eta (1 at
 * first), projects each column of the row-major candidate onto the unit
 * ball and accepts it when the quadratic term does not grow: unless the
 * candidate equals the atoms (stationary: stop), it becomes the atoms;
 * otherwise eta is halved.  The gradient is taken again only after the
 * atoms move.  work holds p * n + 2 * p * m + m doubles.  Returns the
 * number of steps accepted.  Mirrors dictionary._dense_py, whose column
 * sums (out * out).sum(axis=0) of the row-major candidate run down each
 * column, or pairwise when it is a single column. */
int64_t scc_dense(int64_t p, int64_t m, int64_t n, double *atoms, const double *z,
                  const double *x, int64_t attempts, double *work)
{
    double *r = work, *g = r + p * n, *cand = g + p * m, *norms = cand + p * m;
    double eta = 1.0;
    residuals(p, m, n, atoms, 1, p, z, x, r);
    gradient(p, m, n, r, z, g);
    double quad = quadratic(r, p, n);
    int64_t accepted = 0;
    int stale = 0; /* the atoms moved since g was taken */
    for (int64_t t = 0; t < attempts; t++) {
        if (stale) {
            residuals(p, m, n, atoms, 1, p, z, x, r);
            gradient(p, m, n, r, z, g);
            stale = 0;
        }
        for (int64_t i = 0; i < p; i++)
            for (int64_t j = 0; j < m; j++)
                cand[i * m + j] = atoms[j * p + i] - eta * g[i * m + j];
        if (m == 1) {
            for (int64_t i = 0; i < p; i++)
                r[i] = cand[i] * cand[i];
            norms[0] = abs_sum(r, p);
        } else {
            memset(norms, 0, m * sizeof *norms);
            for (int64_t i = 0; i < p; i++)
                for (int64_t j = 0; j < m; j++)
                    norms[j] += cand[i * m + j] * cand[i * m + j];
        }
        for (int64_t j = 0; j < m; j++) {
            double norm = sqrt(norms[j]);
            if (norm > 1.0)
                for (int64_t i = 0; i < p; i++)
                    cand[i * m + j] /= norm;
        }
        residuals(p, m, n, cand, m, 1, z, x, r);
        double quad_new = quadratic(r, p, n);
        if (quad_new <= quad) {
            int64_t k = 0;
            while (k < p * m && cand[k] == atoms[k % m * p + k / m])
                k++;
            if (k == p * m)
                break; /* stationary for these codes */
            for (int64_t i = 0; i < p; i++)
                for (int64_t j = 0; j < m; j++)
                    atoms[j * p + i] = cand[i * m + j];
            quad = quad_new;
            accepted++;
            stale = 1;
        } else {
            eta *= 0.5;
        }
    }
    return accepted;
}
