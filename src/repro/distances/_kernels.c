/* The elastic-distance kernels: the one engine of every DP recurrence.
 *
 * Compiled on first use by repro.distances.compiled and loaded through
 * ctypes.  Each recurrence has one sweep, and every call form -- a single
 * value, a bounded value, a batch, pairs, a prefix block -- runs it, so the
 * forms agree bit for bit:
 *
 *  - warp "sum" (DTW): a reduced-coordinate row sweep (per-row prefix sums
 *    of the costs, element-wise min of adjacent cells, subtract the shifted
 *    prefix, running minimum, add the prefix back);
 *  - warp "max" (discrete Frechet): the direct bottleneck recurrence;
 *    min/max are exact selections;
 *  - edit (Levenshtein, weighted Levenshtein, ERP, EDR): a reduced-
 *    coordinate row sweep (the row minus the cumulative insertion costs),
 *    whose in-row scan is one running minimum.
 *
 * Element costs are fused into the DP loops (no cost matrix is built) and
 * accumulate sequentially over the element axis, the order of
 * ElementMetric.norm.  The weighted Levenshtein distance reads its costs
 * from the parameter array ERP uses for its gap element: the default
 * substitution cost, the insertion cost, the deletion cost, the number of
 * table entries, then one (a, b, cost) triple per entry; symbol codes
 * compare as int64.
 *
 * Early abandoning follows the Distance.bounded contract: a returned value
 * is exact whenever it is <= cutoff; any value > cutoff (typically inf)
 * may be returned otherwise.  The *_pairs entry points take a per-pair
 * cutoff vector (NULL = unbounded).
 *
 * Each recurrence has one per-pair loop, the *_pairs entry point, over two
 * operand stacks: pair p is (qs[q_rows[p]], xs[x_rows[p]]), so one call
 * serves many queries, each against its own items.  NULL row vectors mean
 * query row 0 and item row p -- the batch call form, one query against a
 * stack of items.
 *
 * Prefix blocks: the table of one pair (Q, X) holds d(Q[:L], X[:J]) in
 * cell (L, J) -- the prefix property -- so one sweep answers every pair
 * that shares the two start points.  The row sweeps take an optional
 * band_out: each row L that completes without abandoning is copied, where
 * L >= first and |L - J| <= shift, into the (n - first + 1) x
 * (2 shift + 1) cell band.  The copy reads the values the single call
 * returns for that prefix pair (the sweeps are prefix-consistent: prefix
 * sums and running minima only look left), so repro_warp_block and
 * repro_edit_block cells are bit-identical to repro_warp_value and
 * repro_edit_value.  A row is abandoned only when every column exceeds the
 * cutoff, so every pair reaching it does too; its cells are left as the
 * caller filled them (+inf).
 *
 * Conventions: band < 0 means "no band"; cutoff = +inf means "no cutoff";
 * all arrays are C-contiguous float64.  Return code 0 = success, 1 = out
 * of memory.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* element metric kinds */
#define KIND_EUCLIDEAN 0
#define KIND_MANHATTAN 1
#define KIND_DISCRETE 2

/* edit-distance modes */
#define MODE_LEVENSHTEIN 0
#define MODE_ERP 1
#define MODE_EDR 2
#define MODE_WEIGHTED 3

static double dmin(double a, double b) { return a < b ? a : b; }

/* Ground distance between two elements; matches ElementMetric.norm (which
 * accumulates sequentially over the element axis too) bit for bit. */
static double elem_cost(const double *a, const double *b, int64_t d, int64_t kind) {
    int64_t t;
    double s = 0.0;
    if (kind == KIND_EUCLIDEAN) {
        for (t = 0; t < d; t++) {
            double diff = a[t] - b[t];
            s += diff * diff;
        }
        return sqrt(s);
    }
    if (kind == KIND_MANHATTAN) {
        for (t = 0; t < d; t++)
            s += fabs(a[t] - b[t]);
        return s;
    }
    for (t = 0; t < d; t++)
        if (a[t] - b[t] != 0.0)
            return 1.0;
    return 0.0;
}

/* Substitution cost of the weighted Levenshtein distance: the table entry
 * of (a, b) when there is one, else 0 for equal codes and the default cost
 * otherwise. */
static double weighted_sub(double a, double b, const double *params) {
    int64_t ca = (int64_t)a, cb = (int64_t)b, t, count = (int64_t)params[3];
    const double *entry = params + 4;
    for (t = 0; t < count; t++, entry += 3)
        if ((int64_t)entry[0] == ca && (int64_t)entry[1] == cb)
            return entry[2];
    return ca == cb ? 0.0 : params[0];
}

/* Substitution cost of the edit recurrences.  Levenshtein compares raw
 * element equality, ERP pays the ground distance, EDR thresholds it, the
 * weighted distance looks its cost up in params. */
static double edit_sub(const double *a, const double *b, int64_t d, int64_t mode,
                       int64_t kind, const double *params, double eps) {
    if (mode == MODE_LEVENSHTEIN) {
        int64_t t;
        for (t = 0; t < d; t++)
            if (a[t] != b[t])
                return 1.0;
        return 0.0;
    }
    if (mode == MODE_WEIGHTED)
        return weighted_sub(a[0], b[0], params);
    {
        double g = elem_cost(a, b, d, kind);
        if (mode == MODE_ERP)
            return g;
        return g > eps ? 1.0 : 0.0;
    }
}

static void band_limits(int64_t i, int64_t m, int64_t band, int64_t *j_start,
                        int64_t *j_stop) {
    if (band < 0) {
        *j_start = 0;
        *j_stop = m;
        return;
    }
    *j_start = i - band > 0 ? i - band : 0;
    if (*j_start > m)
        *j_start = m; /* the fill loops index the row directly */
    *j_stop = i + band + 1 < m ? i + band + 1 : m;
}

/* The admissible band of a prefix block (see the header comment). */
typedef struct {
    double *cells;
    int64_t first; /* the shortest row kept (lambda) */
    int64_t shift; /* the widest length difference kept (lambda0) */
    int64_t rows;  /* the last row completed without abandoning */
} band_out;

/* Copy row `len` of an m-column table into the band: column J's value is
 * row[J - base], plus offsets[J] when offsets is not NULL. */
static void band_emit(band_out *out, int64_t len, int64_t m, const double *row,
                      int64_t base, const double *offsets) {
    int64_t J, lo, hi;
    double *cells;
    out->rows = len;
    if (len < out->first)
        return;
    cells = out->cells + (len - out->first) * (2 * out->shift + 1);
    lo = len - out->shift > 1 ? len - out->shift : 1;
    hi = len + out->shift < m ? len + out->shift : m;
    for (J = lo; J <= hi; J++)
        cells[J - len + out->shift] =
            offsets != NULL ? row[J - base] + offsets[J] : row[J - base];
}

/* ------------------------------------------------------------------ */
/* warp sum: reduced-coordinate row sweep (DTW aggregate="sum")        */
/* ------------------------------------------------------------------ */

/* One pair; row/buf/costp are caller-provided length-m scratch; out is an
 * optional band output (NULL for a plain value). */
static double warp_sum_pair(const double *q, int64_t n, const double *x, int64_t m,
                            int64_t d, int64_t kind, int64_t band, double cutoff,
                            double *row, double *buf, double *costp, band_out *out) {
    int64_t i, j, j_start, j_stop;
    double acc, running;

    /* row 0: the prefix sums of the first cost row. */
    acc = 0.0;
    for (j = 0; j < m; j++) {
        acc += elem_cost(q, x + j * d, d, kind);
        costp[j] = acc;
        row[j] = acc;
    }
    band_limits(0, m, band, &j_start, &j_stop);
    for (j = j_stop; j < m; j++)
        row[j] = INFINITY;
    if (row[0] > cutoff)
        return INFINITY;
    if (out != NULL)
        band_emit(out, 1, m, row, 1, NULL);

    for (i = 1; i < n; i++) {
        const double *qi = q + i * d;
        double *tmp;
        band_limits(i, m, band, &j_start, &j_stop);
        acc = 0.0;
        for (j = 0; j < m; j++) {
            acc += elem_cost(qi, x + j * d, d, kind);
            costp[j] = acc;
        }
        buf[0] = row[0];
        for (j = 1; j < m; j++)
            buf[j] = dmin(row[j], row[j - 1]);
        for (j = 0; j < j_start; j++)
            buf[j] = INFINITY;
        for (j = j_stop; j < m; j++)
            buf[j] = INFINITY;
        for (j = 0; j < m; j++)
            buf[j] = buf[j] - (j > 0 ? costp[j - 1] : 0.0);
        running = INFINITY;
        for (j = 0; j < m; j++) {
            running = dmin(running, buf[j]);
            buf[j] = running;
        }
        for (j = 0; j < m; j++)
            buf[j] = buf[j] + costp[j];
        for (j = j_stop; j < m; j++)
            buf[j] = INFINITY;
        tmp = row;
        row = buf;
        buf = tmp;
        if (cutoff != INFINITY) {
            double row_min = row[0];
            for (j = 1; j < m; j++)
                row_min = dmin(row_min, row[j]);
            if (row_min > cutoff)
                return INFINITY;
        }
        if (out != NULL)
            band_emit(out, i + 1, m, row, 1, NULL);
    }
    return row[m - 1];
}

/* ------------------------------------------------------------------ */
/* warp max: direct bottleneck recurrence (discrete Frechet)           */
/* ------------------------------------------------------------------ */

static double warp_max_pair(const double *q, int64_t n, const double *x, int64_t m,
                            int64_t d, int64_t kind, int64_t band, double cutoff,
                            double *prev, double *row, band_out *out) {
    int64_t i, j, j_start, j_stop;

    for (i = 0; i < n; i++) {
        const double *qi = q + i * d;
        double row_min = INFINITY;
        double *tmp;
        band_limits(i, m, band, &j_start, &j_stop);
        for (j = 0; j < m; j++)
            row[j] = INFINITY;
        for (j = j_start; j < j_stop; j++) {
            double c = elem_cost(qi, x + j * d, d, kind);
            double best, value;
            if (i == 0 && j == 0) {
                best = 0.0;
            } else {
                best = INFINITY;
                if (i > 0) {
                    if (j > 0 && prev[j - 1] < best)
                        best = prev[j - 1];
                    if (prev[j] < best)
                        best = prev[j];
                }
                if (j > 0 && row[j - 1] < best)
                    best = row[j - 1];
                if (best == INFINITY)
                    continue;
            }
            value = best > c ? best : c;
            row[j] = value;
            if (value < row_min)
                row_min = value;
        }
        if (cutoff != INFINITY && row_min > cutoff)
            return INFINITY;
        if (out != NULL)
            band_emit(out, i + 1, m, row, 1, NULL);
        tmp = prev;
        prev = row;
        row = tmp;
    }
    return prev[m - 1];
}

/* ------------------------------------------------------------------ */
/* edit distance: reduced-coordinate row sweep                         */
/* ------------------------------------------------------------------ */

/* insp has length m + 1 (cumulative insertion costs, insp[0] == 0). */
static double edit_pair_reduced(const double *q, int64_t n, const double *x, int64_t m,
                                int64_t d, int64_t mode, int64_t kind,
                                const double *params, double eps,
                                const double *del_costs, const double *ins,
                                const double *insp, double cutoff, double *reduced,
                                double *buf, band_out *out) {
    int64_t i, j;

    for (j = 0; j <= m; j++)
        reduced[j] = 0.0;
    for (i = 0; i < n; i++) {
        const double *qi = q + i * d;
        double delc = del_costs[i];
        double running;
        double *tmp;
        for (j = 0; j < m; j++) {
            double rs = edit_sub(qi, x + j * d, d, mode, kind, params, eps) - ins[j];
            double a = reduced[j] + rs;
            double b = reduced[j + 1] + delc;
            buf[j + 1] = a < b ? a : b;
        }
        buf[0] = reduced[0] + delc;
        running = INFINITY;
        for (j = 0; j <= m; j++) {
            running = dmin(running, buf[j]);
            buf[j] = running;
        }
        tmp = reduced;
        reduced = buf;
        buf = tmp;
        if (cutoff != INFINITY) {
            double row_min = reduced[0] + insp[0];
            for (j = 1; j <= m; j++)
                row_min = dmin(row_min, reduced[j] + insp[j]);
            if (row_min > cutoff)
                return INFINITY;
        }
        if (out != NULL)
            band_emit(out, i + 1, m, reduced, 0, insp);
    }
    return reduced[m] + insp[m];
}

/* The cost of leaving one element unmatched: its ground distance to the gap
 * element for ERP, the table's insertion (or deletion) cost for the
 * weighted distance, 1 otherwise. */
static double gap_cost(const double *e, int64_t d, int64_t mode, int64_t kind,
                       const double *params, int64_t which) {
    if (mode == MODE_ERP)
        return elem_cost(e, params, d, kind);
    if (mode == MODE_WEIGHTED)
        return params[which];
    return 1.0;
}

/* Fill the per-column insertion costs and their prefix for one item. */
static void fill_ins(const double *x, int64_t m, int64_t d, int64_t mode, int64_t kind,
                     const double *params, double *ins, double *insp) {
    int64_t j;
    double acc = 0.0;
    insp[0] = 0.0;
    for (j = 0; j < m; j++) {
        ins[j] = gap_cost(x + j * d, d, mode, kind, params, 1);
        acc += ins[j];
        insp[j + 1] = acc;
    }
}

static void fill_del(const double *q, int64_t n, int64_t d, int64_t mode, int64_t kind,
                     const double *params, double *del_costs) {
    int64_t i;
    for (i = 0; i < n; i++)
        del_costs[i] = gap_cost(q + i * d, d, mode, kind, params, 2);
}

/* Scratch of the edit sweeps: ins (m), insp (m + 1), del (n), two work rows
 * (m + 1 each), carved out of one allocation. */
typedef struct {
    double *mem, *ins, *insp, *del_costs, *work0, *work1;
} edit_scratch;

static int edit_scratch_alloc(edit_scratch *s, int64_t n, int64_t m) {
    s->mem = (double *)malloc((size_t)(m + (m + 1) + n + 2 * (m + 1)) * sizeof(double));
    if (s->mem == NULL)
        return 1;
    s->ins = s->mem;
    s->insp = s->ins + m;
    s->del_costs = s->insp + m + 1;
    s->work0 = s->del_costs + n;
    s->work1 = s->work0 + m + 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* exported entry points                                               */
/* ------------------------------------------------------------------ */

int repro_warp_value(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t kind, int64_t use_max, int64_t band, double cutoff,
                     double *out) {
    double *scratch = (double *)malloc((size_t)(3 * m) * sizeof(double));
    if (scratch == NULL)
        return 1;
    if (use_max)
        *out = warp_max_pair(q, n, x, m, d, kind, band, cutoff, scratch, scratch + m, NULL);
    else
        *out = warp_sum_pair(q, n, x, m, d, kind, band, cutoff, scratch, scratch + m,
                             scratch + 2 * m, NULL);
    free(scratch);
    return 0;
}

int repro_warp_pairs(const double *qs, int64_t n, const int64_t *q_rows, const double *xs,
                     int64_t m, const int64_t *x_rows, int64_t k, int64_t d, int64_t kind,
                     int64_t use_max, int64_t band, const double *cutoffs, double *out) {
    int64_t p;
    double *scratch = (double *)malloc((size_t)(3 * m) * sizeof(double));
    if (scratch == NULL)
        return 1;
    for (p = 0; p < k; p++) {
        const double *q = qs + (q_rows != NULL ? q_rows[p] : 0) * n * d;
        const double *x = xs + (x_rows != NULL ? x_rows[p] : p) * m * d;
        double cutoff = cutoffs != NULL ? cutoffs[p] : INFINITY;
        if (use_max)
            out[p] = warp_max_pair(q, n, x, m, d, kind, band, cutoff, scratch,
                                   scratch + m, NULL);
        else
            out[p] = warp_sum_pair(q, n, x, m, d, kind, band, cutoff, scratch,
                                   scratch + m, scratch + 2 * m, NULL);
    }
    free(scratch);
    return 0;
}

int repro_edit_value(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t mode, int64_t kind, const double *params, double eps,
                     double cutoff, double *out) {
    edit_scratch s;
    if (edit_scratch_alloc(&s, n, m))
        return 1;
    fill_ins(x, m, d, mode, kind, params, s.ins, s.insp);
    fill_del(q, n, d, mode, kind, params, s.del_costs);
    *out = edit_pair_reduced(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins,
                             s.insp, cutoff, s.work0, s.work1, NULL);
    free(s.mem);
    return 0;
}

int repro_edit_pairs(const double *qs, int64_t n, const int64_t *q_rows, const double *xs,
                     int64_t m, const int64_t *x_rows, int64_t k, int64_t d, int64_t mode,
                     int64_t kind, const double *params, double eps, const double *cutoffs,
                     double *out) {
    int64_t p, filled = -1;
    edit_scratch s;
    if (edit_scratch_alloc(&s, n, m))
        return 1;
    for (p = 0; p < k; p++) {
        int64_t q_row = q_rows != NULL ? q_rows[p] : 0;
        const double *q = qs + q_row * n * d;
        const double *x = xs + (x_rows != NULL ? x_rows[p] : p) * m * d;
        double cutoff = cutoffs != NULL ? cutoffs[p] : INFINITY;
        if (q_row != filled) {
            /* deletion costs belong to the query: once per run of one query row */
            fill_del(q, n, d, mode, kind, params, s.del_costs);
            filled = q_row;
        }
        fill_ins(x, m, d, mode, kind, params, s.ins, s.insp);
        out[p] = edit_pair_reduced(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins,
                                   s.insp, cutoff, s.work0, s.work1, NULL);
    }
    free(s.mem);
    return 0;
}

/* The prefix block of (q, x): the sweep of repro_warp_value with a band
 * output.  cells holds (n - first + 1) x (2 shift + 1) doubles the caller
 * filled with +inf; *rows receives the last row that was not abandoned. */
int repro_warp_block(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t kind, int64_t use_max, int64_t band, double cutoff,
                     int64_t first, int64_t shift, double *cells, int64_t *rows) {
    band_out out = {cells, first, shift, 0};
    double *scratch = (double *)malloc((size_t)(3 * m) * sizeof(double));
    if (scratch == NULL)
        return 1;
    if (use_max)
        warp_max_pair(q, n, x, m, d, kind, band, cutoff, scratch, scratch + m, &out);
    else
        warp_sum_pair(q, n, x, m, d, kind, band, cutoff, scratch, scratch + m,
                      scratch + 2 * m, &out);
    free(scratch);
    *rows = out.rows;
    return 0;
}

/* The prefix block of (q, x) under an edit recurrence: the sweep of
 * repro_edit_value with a band output. */
int repro_edit_block(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t mode, int64_t kind, const double *params, double eps,
                     double cutoff, int64_t first, int64_t shift, double *cells,
                     int64_t *rows) {
    band_out out = {cells, first, shift, 0};
    edit_scratch s;
    if (edit_scratch_alloc(&s, n, m))
        return 1;
    fill_ins(x, m, d, mode, kind, params, s.ins, s.insp);
    fill_del(q, n, d, mode, kind, params, s.del_costs);
    edit_pair_reduced(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins, s.insp,
                      cutoff, s.work0, s.work1, &out);
    free(s.mem);
    *rows = out.rows;
    return 0;
}
