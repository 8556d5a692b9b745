/* Native form of the hot paths: the whole stochastic epoch of the SCC
 * trainers (which, with the dictionary held fixed, also gives the codes of
 * a whole dataset), the backtracking dictionary step of batch_train, the
 * dataset objective, and the per-sample coordinate-descent passes of the
 * cheap encoder and of the two single-pass cycles.
 *
 * A sample is coded by one of two routines on one count of passes: encode,
 * the cheap encoder, makes exactly that many, at most one full pass and the
 * rest over the support; oracle, the CD oracle, makes at most that many,
 * full passes to a tolerance with a working set settled between them.
 *
 * Built by scc._native_lib with -O2 -ftree-vectorize
 * -fvect-cost-model=dynamic -ffp-contract=off -falign-loops=64, linked
 * against the OpenBLAS that numpy loaded, and loaded through ctypes.  The
 * results are bit-identical to the Python loops in scc.lasso._epoch_py,
 * scc.dictionary._dense_py, scc.metrics._terms_py, scc.lasso._encode_py
 * and scc.lasso._oracle_py:
 *
 *   - every inner product goes through the cblas_ddot that numpy calls,
 *     taken as 0.0 + ddot(...), exactly as numpy's DOUBLE_dot accumulates it;
 *   - every matrix product calls numpy's cblas_dgemm or cblas_dgemv with
 *     the arguments numpy's matmul passes for operands of that layout, or
 *     takes numpy's dot and plain-loop routes where matmul takes them (see
 *     matmul, through which residual takes x - D z too);
 *   - sums over a whole contiguous array (the penalty sum |z_j|, the
 *     squared residuals of the batch step) follow numpy's pairwise
 *     summation order, and the column sums of a row-major matrix run down
 *     each column;
 *   - every other operation is one correctly rounded IEEE operation, in
 *     numpy's order: r[i] - delta * col[i] is a product and then a
 *     difference, never a fused multiply-add, which is why the source
 *     must not be built with -ffast-math or floating-point contraction.
 *
 * Vectorizing keeps these bits.  An element-wise loop such as
 * r[i] -= delta * col[i] becomes one where each vector lane does the same
 * single, correctly rounded operation on its own element; a sum stays a sum
 * in order, because without -ffast-math (-fassociative-math) the compiler
 * never reorders a reduction; and contraction stays off, so no lane fuses a
 * multiply-add.  The two entry points that hold the hot loops, scc_epoch and
 * scc_encode, are also built as AVX-512F, AVX2 and baseline clones, and the
 * dynamic loader picks one per process from cpuid (scc_isa names it).  The
 * two per-sample routines and the fresh residual with its matmul are inlined
 * into them, so that their loops are built for each clone too (an out-of-line
 * matmul cost a 16 x 32 epoch 2%).  scc_objective and scc_dense are not
 * cloned: clones of them bought nothing measurable on the batch step or at
 * 16 x 32, and made the build several times slower.
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

/* numpy's OpenBLAS, which the kernel is linked against: the ILP64 cblas routines
 * of numpy's wheels, called by their short names, and the core it picked. */
double scipy_cblas_ddot64_(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
void scipy_cblas_dgemv64_(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                          int64_t lda, const double *x, int64_t incx, double beta, double *y,
                          int64_t incy);
void scipy_cblas_dgemm64_(int order, int transa, int transb, int64_t m, int64_t n, int64_t k,
                          double alpha, const double *a, int64_t lda, const double *b, int64_t ldb,
                          double beta, double *c, int64_t ldc);
char *scipy_openblas_get_corename64_(void);

#define ddot scipy_cblas_ddot64_
#define dgemv scipy_cblas_dgemv64_
#define dgemm scipy_cblas_dgemm64_

enum { CBLAS_ROW_MAJOR = 101, CBLAS_COL_MAJOR = 102, CBLAS_NO_TRANS = 111, CBLAS_TRANS = 112 };

/* CLONED builds a function once per vector ISA, behind an ifunc: only on
 * x86-64 ELF with glibc, whose loader runs ifunc resolvers (musl's does
 * not), and by a compiler that knows target_clones.  Elsewhere it is empty
 * and every function is built once, for the baseline. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif

/* The clone of scc_epoch and scc_encode that runs in this process, by the
 * test the ifunc resolver makes: the widest ISA this CPU supports. */
const char *scc_isa(void)
{
#ifdef CLONED
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/* The core whose microkernels OpenBLAS picked for this CPU. */
const char *scc_core(void)
{
    return scipy_openblas_get_corename64_();
}

#ifndef CLONED
#define CLONED
#endif

/* Helpers inlined into each caller, so that their loops are built for each
 * clone of the caller. */
#define INLINE static inline __attribute__((always_inline))

/* One sweep over coords[0..n) (all m atoms in order when coords is NULL);
 * z and r = x - D z are updated in place.  Returns the largest absolute
 * coordinate change.  Mirrors lasso._cd_pass. */
INLINE double cd_pass(int64_t p, const double *atoms, const int64_t *coords, int64_t n,
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

/* The nonzeros of z (length m) into support in ascending order; returns their count. */
INLINE int64_t nonzeros(int64_t m, const double *z, int64_t *support)
{
    int64_t nnz = 0;
    for (int64_t j = 0; j < m; j++)
        if (z[j] != 0.0)
            support[nnz++] = j;
    return nnz;
}

/* The cheap encoder: passes passes, full (0 or 1) of them full and the rest
 * over the support, which only ever shrinks.  z (length m) holds the warm
 * start on entry and the code on exit; support receives the final support
 * in ascending order.  Returns its length.  Mirrors lasso._encode_py. */
INLINE int64_t encode(int64_t p, int64_t m, const double *atoms, double *z, double *r,
                      double lam, int64_t full, int64_t passes, int64_t *support)
{
    for (int64_t pass = 0; pass < full; pass++)
        cd_pass(p, atoms, NULL, m, z, r, lam);
    int64_t nnz = nonzeros(m, z, support);
    for (int64_t pass = full; pass < passes; pass++) {
        int64_t kept = 0;
        cd_pass(p, atoms, support, nnz, z, r, lam);
        for (int64_t k = 0; k < nnz; k++)
            if (z[support[k]] != 0.0)
                support[kept++] = support[k];
        nnz = kept;
    }
    return nnz;
}

/* The CD oracle: full passes until one changes no coordinate by tol or
 * more.  After each full pass that does, the working set, its nonzeros,
 * is settled first by passes over just those until one changes none by tol
 * or more (a coordinate that falls to zero stays in the set until the next
 * full pass).  It makes at most passes passes, full and working-set passes
 * alike; pass counts those made.  z and support as for encode.  Returns
 * the length of the support, or -1 when the budget ran out before a full
 * pass settled.  Mirrors lasso._oracle_py. */
INLINE int64_t oracle(int64_t p, int64_t m, const double *atoms, double *z, double *r,
                      double lam, double tol, int64_t passes, int64_t *support)
{
    for (int64_t pass = 1; pass <= passes; pass++) {
        if (cd_pass(p, atoms, NULL, m, z, r, lam) < tol)
            return nonzeros(m, z, support);
        int64_t work = nonzeros(m, z, support);
        while (pass < passes) {
            pass++; /* a working-set pass spends the budget too */
            if (cd_pass(p, atoms, support, work, z, r, lam) < tol)
                break;
        }
    }
    return -1;
}

/* encode_scc (full 1, passes steps), cd_full_cycle (1, 1) and cd_support_cycle (0, 1). */
CLONED int64_t scc_encode(int64_t p, int64_t m, const double *atoms, double *z, double *r,
                          double lam, int64_t full, int64_t passes, int64_t *support)
{
    return encode(p, m, atoms, z, r, lam, full, passes, support);
}

/* Codes of one pass over a dataset: code i is indices[start[i] ..
 * start[i] + length[i]) with its values; used entries of capacity are
 * taken.  Mirrors core._CodeStore. */
struct codes {
    int64_t *start, *length, *indices;
    double *values;
    int64_t capacity, used;
};

/* out = a @ b, an M x P row-major result, as numpy's matmul computes it for
 * the M x N matrix a with element strides (am, an) and the N x P matrix b
 * with (bn, bp), both contiguous (the stride along a dimension of length 1
 * is never read).  numpy calls dgemm when M, N and P all exceed 1, its dot
 * for a 1 x 1 result, dgemv for one row or one column of result with N > 1,
 * and otherwise its plain loop, 0 + a * b summed in order; dgemm and dgemv
 * get the order, transposes and leading dimensions numpy passes for that
 * layout: a row-major operand as is, a column-major one transposed. */
INLINE void matmul(int64_t M, int64_t N, int64_t P, const double *a, int64_t am, int64_t an,
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

/* r = x - D z for the code (idx, val) of k entries, as numpy computes
 * x - D.atoms[:, idx] @ val: matmul puts the product into r, from the
 * atoms gathered into g (p x k, column-major), or for k = 1 from the atom
 * itself, and each r[i] becomes x[i] - r[i]. */
INLINE void residual(int64_t p, const double *atoms, const double *x, int64_t k,
                     const int64_t *idx, const double *val, double *g, double *r)
{
    if (k == 0) {
        memcpy(r, x, p * sizeof *r);
        return;
    }
    const double *a = atoms + idx[0] * p;
    if (k > 1) {
        for (int64_t j = 0; j < k; j++)
            memcpy(g + j * p, atoms + idx[j] * p, p * sizeof *g);
        a = g;
    }
    matmul(p, k, 1, a, 1, p, val, 1, 1, r);
    for (int64_t i = 0; i < p; i++)
        r[i] = x[i] - r[i];
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
 * the codes c, r = x - D z fresh; g (p x m) and r (p) are work space.
 * Mirrors metrics._terms_py. */
void scc_objective(int64_t p, int64_t n, const double *atoms, const double *x,
                   const struct codes *c, double lam, double *g, double *r, double *terms)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t *idx = c->indices + c->start[i];
        const double *val = c->values + c->start[i];
        int64_t k = c->length[i];
        residual(p, atoms, x + i * p, k, idx, val, g, r);
        double penalty = lam * abs_sum(val, k);
        terms[i] = 0.5 * (0.0 + ddot(p, r, 1, r, 1)) + penalty;
    }
}

/* The state of one stochastic epoch; mirrors the arguments of
 * lasso._epoch_py.  Each sample is coded by oracle, in at most passes
 * passes, when tol > 0, and otherwise by encode, in exactly passes: one
 * full pass and passes - 1 support passes.  h holds the curvature cells of
 * the adaptive rule, or is NULL for the natural rule a / (t + b), whose a
 * is always > 0.  h NULL and a = 0 hold the dictionary fixed: the epoch
 * only codes, moves no atom and leaves t as it is (lasso._epoch_py with
 * rate None). */
struct epoch {
    int64_t p, m, n, passes;
    double lam, tol;
    double *atoms;        /* p x m, updated in place */
    const double *x;      /* p x n samples */
    const int64_t *order; /* the n visits */
    struct codes old, new;
    double *h;
    double a, b;
    int64_t t;
    double *z, *r, *g;     /* work space: m zeros, p, p x m */
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
 * residual of the sample under its code of the previous epoch, codes it
 * with oracle or encode and appends the code to e->new; unless the
 * dictionary is held fixed, it then advances the rate and moves each
 * supported atom by its step times the residual onto the unit ball.
 * Returns 0 once every visit is made; 1, before a visit, when e->new has
 * no room for a code of m entries (grow it and call again); -1 when an
 * adaptive cell is not positive, with the first such cell in e->bad and
 * no atom moved for that sample; -2 when a visit's oracle passes run out
 * of budget before a full pass settles, with e->next at that visit, nothing
 * stored for it and its z left as the passes left it.  Each phase is
 * timed from the end of the one before it, so that a training visit reads
 * the clock once per phase; with the dictionary held fixed every visit is
 * code phase, and only the call as a whole is timed. */
CLONED int64_t scc_epoch(struct epoch *e)
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
        residual(p, e->atoms, e->x + i * p, k, idx, val, e->g, r);
        for (int64_t q = 0; q < k; q++)
            z[idx[q]] = val[q];
        int64_t nnz = e->tol > 0.0
                          ? oracle(p, m, e->atoms, z, r, e->lam, e->tol, e->passes, support)
                          : encode(p, m, e->atoms, z, r, e->lam, 1, e->passes, support);
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
