/* Fused elastic-distance kernels (compiled tier).
 *
 * Compiled on demand by repro.distances.compiled and loaded through ctypes.
 * Every function replicates the floating-point *operation order* of the
 * NumPy kernels in repro/distances/alignment.py exactly, per call form:
 *
 *  - warp "sum" (DTW/ERP-style additive): the reduced-coordinate row sweep
 *    of _warp_sum_value / _batch_warp_sum (sequential per-row prefix sums,
 *    element-wise min of adjacent cells, subtract shifted prefix, running
 *    minimum, add prefix) -- bit-identical values;
 *  - warp "max" (discrete Frechet): the direct bottleneck recurrence of
 *    _warp_max_value_small.  min/max are exact selections, so the value is
 *    bit-identical to both the scalar small-table path and the
 *    anti-diagonal / doubling-scan paths;
 *  - edit (Levenshtein/ERP/EDR): the direct scalar recurrence below
 *    REPRO_SMALL_TABLE_CELLS table cells for single values (matching
 *    _edit_value_small) and the reduced-coordinate sweep above it and for
 *    batches (matching edit_distance_value / batch_edit_distance_value).
 *
 * Element costs are fused into the DP loops (no cost-matrix
 * materialisation).  The sequential per-element accumulation matches
 * NumPy's reduction order for small element dimensionalities (NumPy's
 * pairwise summation only kicks in at >= 8 addends); the Python wrapper
 * only dispatches here when dim stays below that threshold.
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
 * stack of items.  Both forms run the same recurrence per pair (for edit
 * distances always the reduced-coordinate sweep, never the small-table
 * path), hence bit-identical values.
 *
 * Prefix blocks: the table of one pair (Q, X) holds d(Q[:L], X[:J]) in
 * cell (L, J) -- the prefix property -- so one sweep answers every pair
 * that shares the two start points.  The row sweeps take an optional
 * band_out: each row L that completes without abandoning is copied, where
 * L >= first and |L - J| <= shift, into the (n - first + 1) x
 * (2 shift + 1) cell band.  The copy reads the values the single call
 * returns for that prefix pair (the sweeps are prefix-consistent: prefix
 * sums and running minima only look left), so repro_warp_block and
 * repro_edit_block cells are bit-identical to repro_warp_value /
 * repro_edit_value above the edit small-table switch.  A row is abandoned
 * only when every column exceeds the cutoff, so every pair reaching it
 * does too; its cells are left as the caller filled them (+inf).
 *
 * Conventions: band < 0 means "no band"; cutoff = +inf means "no cutoff";
 * all arrays are C-contiguous float64.  Return code 0 = success, 1 = out
 * of memory.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_SMALL_TABLE_CELLS 1024

/* element metric kinds */
#define KIND_EUCLIDEAN 0
#define KIND_MANHATTAN 1
#define KIND_DISCRETE 2

/* edit-distance modes */
#define MODE_LEVENSHTEIN 0
#define MODE_ERP 1
#define MODE_EDR 2

static double dmin(double a, double b) { return a < b ? a : b; }

/* Ground distance between two elements; matches ElementMetric.matrix cell
 * by cell (sequential accumulation over the dim axis). */
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

/* Substitution cost of the edit recurrences.  Levenshtein compares raw
 * element equality (matching `first != second` in NumPy), ERP pays the
 * ground distance, EDR thresholds it. */
static double edit_sub(const double *a, const double *b, int64_t d, int64_t mode,
                       int64_t kind, double eps) {
    if (mode == MODE_LEVENSHTEIN) {
        int64_t t;
        for (t = 0; t < d; t++)
            if (a[t] != b[t])
                return 1.0;
        return 0.0;
    }
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
        *j_start = m; /* fill loops index the row directly; NumPy's slice fills clamp */
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
/* edit distance: direct small-table path and reduced-coordinate path  */
/* ------------------------------------------------------------------ */

/* ins has length m (per-column insertion costs), del_costs length n. */
static double edit_pair_small(const double *q, int64_t n, const double *x, int64_t m,
                              int64_t d, int64_t mode, int64_t kind, double eps,
                              const double *del_costs, const double *ins, double cutoff,
                              double *prev, double *row) {
    int64_t i, j;
    double acc = 0.0;

    prev[0] = 0.0;
    for (j = 1; j <= m; j++) {
        acc += ins[j - 1];
        prev[j] = acc;
    }
    for (i = 1; i <= n; i++) {
        const double *qi = q + (i - 1) * d;
        double delc = del_costs[i - 1];
        double first = prev[0] + delc;
        double row_min = first;
        double *tmp;
        row[0] = first;
        for (j = 1; j <= m; j++) {
            double best = prev[j - 1] + edit_sub(qi, x + (j - 1) * d, d, mode, kind, eps);
            double up = prev[j] + delc;
            double left;
            if (up < best)
                best = up;
            left = row[j - 1] + ins[j - 1];
            if (left < best)
                best = left;
            row[j] = best;
            if (best < row_min)
                row_min = best;
        }
        if (cutoff != INFINITY && row_min > cutoff)
            return INFINITY;
        tmp = prev;
        prev = row;
        row = tmp;
    }
    return prev[m];
}

/* insp has length m + 1 (cumulative insertion costs, insp[0] == 0). */
static double edit_pair_reduced(const double *q, int64_t n, const double *x, int64_t m,
                                int64_t d, int64_t mode, int64_t kind, double eps,
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
            double rs = edit_sub(qi, x + j * d, d, mode, kind, eps) - ins[j];
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

/* Fill the per-column insertion costs and their prefix for one item. */
static void fill_ins(const double *x, int64_t m, int64_t d, int64_t mode, int64_t kind,
                     const double *gap, double *ins, double *insp) {
    int64_t j;
    double acc = 0.0;
    insp[0] = 0.0;
    for (j = 0; j < m; j++) {
        ins[j] = (mode == MODE_ERP) ? elem_cost(x + j * d, gap, d, kind) : 1.0;
        acc += ins[j];
        insp[j + 1] = acc;
    }
}

static void fill_del(const double *q, int64_t n, int64_t d, int64_t mode, int64_t kind,
                     const double *gap, double *del_costs) {
    int64_t i;
    for (i = 0; i < n; i++)
        del_costs[i] = (mode == MODE_ERP) ? elem_cost(q + i * d, gap, d, kind) : 1.0;
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
                     int64_t mode, int64_t kind, const double *gap, double eps,
                     double cutoff, double *out) {
    /* buffers: ins (m), insp (m+1), del (n), two work rows (m+1 each) */
    double *mem = (double *)malloc((size_t)(m + (m + 1) + n + 2 * (m + 1)) * sizeof(double));
    double *ins, *insp, *del_costs, *work0, *work1;
    if (mem == NULL)
        return 1;
    ins = mem;
    insp = ins + m;
    del_costs = insp + m + 1;
    work0 = del_costs + n;
    work1 = work0 + m + 1;
    fill_ins(x, m, d, mode, kind, gap, ins, insp);
    fill_del(q, n, d, mode, kind, gap, del_costs);
    if (n * m <= REPRO_SMALL_TABLE_CELLS)
        *out = edit_pair_small(q, n, x, m, d, mode, kind, eps, del_costs, ins, cutoff,
                               work0, work1);
    else
        *out = edit_pair_reduced(q, n, x, m, d, mode, kind, eps, del_costs, ins, insp,
                                 cutoff, work0, work1, NULL);
    free(mem);
    return 0;
}

int repro_edit_pairs(const double *qs, int64_t n, const int64_t *q_rows, const double *xs,
                     int64_t m, const int64_t *x_rows, int64_t k, int64_t d, int64_t mode,
                     int64_t kind, const double *gap, double eps, const double *cutoffs,
                     double *out) {
    int64_t p, filled = -1;
    double *mem = (double *)malloc((size_t)(m + (m + 1) + n + 2 * (m + 1)) * sizeof(double));
    double *ins, *insp, *del_costs, *work0, *work1;
    if (mem == NULL)
        return 1;
    ins = mem;
    insp = ins + m;
    del_costs = insp + m + 1;
    work0 = del_costs + n;
    work1 = work0 + m + 1;
    for (p = 0; p < k; p++) {
        int64_t q_row = q_rows != NULL ? q_rows[p] : 0;
        const double *q = qs + q_row * n * d;
        const double *x = xs + (x_rows != NULL ? x_rows[p] : p) * m * d;
        double cutoff = cutoffs != NULL ? cutoffs[p] : INFINITY;
        if (q_row != filled) {
            /* deletion costs belong to the query: once per run of one query row */
            fill_del(q, n, d, mode, kind, gap, del_costs);
            filled = q_row;
        }
        fill_ins(x, m, d, mode, kind, gap, ins, insp);
        /* the batch form's recurrence: always the reduced-coordinate sweep */
        out[p] = edit_pair_reduced(q, n, x, m, d, mode, kind, eps, del_costs, ins, insp,
                                   cutoff, work0, work1, NULL);
    }
    free(mem);
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

/* The prefix block of (q, x) under an edit recurrence: always the
 * reduced-coordinate sweep, so its cells equal repro_edit_value only for
 * prefix pairs above REPRO_SMALL_TABLE_CELLS cells. */
int repro_edit_block(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t mode, int64_t kind, const double *gap, double eps,
                     double cutoff, int64_t first, int64_t shift, double *cells,
                     int64_t *rows) {
    band_out out = {cells, first, shift, 0};
    double *mem = (double *)malloc((size_t)(m + (m + 1) + n + 2 * (m + 1)) * sizeof(double));
    double *ins, *insp, *del_costs, *work0, *work1;
    if (mem == NULL)
        return 1;
    ins = mem;
    insp = ins + m;
    del_costs = insp + m + 1;
    work0 = del_costs + n;
    work1 = work0 + m + 1;
    fill_ins(x, m, d, mode, kind, gap, ins, insp);
    fill_del(q, n, d, mode, kind, gap, del_costs);
    edit_pair_reduced(q, n, x, m, d, mode, kind, eps, del_costs, ins, insp, cutoff, work0,
                      work1, &out);
    free(mem);
    *rows = out.rows;
    return 0;
}
