/* The elastic-distance kernels: the one engine of every DP recurrence.
 *
 * Compiled on first use by repro.distances.compiled and loaded through
 * ctypes.  Each family has one sweep, the direct recurrence of the scalar
 * reference (tests/kernel_reference.py), and every call form -- a single
 * value, a bounded value, a batch, pairs, a prefix block -- runs it, so the
 * forms agree bit for bit with each other and with that reference:
 *
 *  - warping (DTW: aggregate "sum"; discrete Frechet: "max"):
 *    cell = cost (+ or max) min(up, diag, left);
 *  - edit (Levenshtein, weighted Levenshtein, ERP, EDR):
 *    cell = min(diag + sub, up + del, left + ins).
 *
 * A row is m + 1 cells, column J at index J.  Column 0 is the edit table's
 * empty-prefix column and the warping table's +inf sentinel, and row 0 and
 * the Sakoe-Chiba band limits are set up before a row's loop, so no cell
 * tests for an edge.  A value is the floating-point sum (or maximum) of
 * the costs along one path, accumulated in path order: it rounds relative
 * to itself (see repro.distances.rounding).
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
 * may be returned otherwise.  A sweep abandons once every cell of a row
 * exceeds the cutoff, and needs no slack for it: every cost is
 * non-negative (the members validate theirs) and rounding is monotone, so
 * fl(c + a) >= a, and every cell is at least the minimum of the row before
 * it in floating point too.  The value then exceeds the cutoff as well.
 * The *_pairs entry points take a per-pair cutoff vector (NULL =
 * unbounded).
 *
 * Each recurrence has one per-pair loop, the *_pairs entry point, over two
 * operand stacks: pair p is (qs[q_rows[p]], xs[x_rows[p]]), so one call
 * serves many queries, each against its own items.  NULL row vectors mean
 * query row 0 and item row p -- the batch call form, one query against a
 * stack of items.
 *
 * Prefix blocks: the table of one pair (Q, X) holds d(Q[:L], X[:J]) in
 * cell (L, J) -- the prefix property -- so one sweep answers every pair
 * that shares the two start points.  The sweeps take an optional band_out:
 * each row L that completes without abandoning is copied, where L >= first
 * and |L - J| <= shift, into the (n - first + 1) x (2 shift + 1) cell band.
 * A cell reads only up, diag and left, so it is the value the single call
 * returns for that prefix pair, and repro_warp_block and repro_edit_block
 * cells are bit-identical to repro_warp_value and repro_edit_value.  Cells
 * of abandoned rows and outside the Sakoe-Chiba band are left as the
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
static inline double elem_cost(const double *a, const double *b, int64_t d, int64_t kind) {
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
static inline double weighted_sub(double a, double b, const double *params) {
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
static inline double edit_sub(const double *a, const double *b, int64_t d, int64_t mode,
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

/* The columns of table row i (0-based) inside the Sakoe-Chiba band, lo..hi
 * (1-based; empty when lo > hi, then lo = m + 1). */
static void band_columns(int64_t i, int64_t m, int64_t band, int64_t *lo, int64_t *hi) {
    if (band < 0) {
        *lo = 1;
        *hi = m;
        return;
    }
    *lo = i - band + 1 > 1 ? i - band + 1 : 1;
    if (*lo > m + 1)
        *lo = m + 1;
    *hi = i + band + 1 < m ? i + band + 1 : m;
}

/* The admissible band of a prefix block (see the header comment). */
typedef struct {
    double *cells;
    int64_t first; /* the shortest row kept (lambda) */
    int64_t shift; /* the widest length difference kept (lambda0) */
    int64_t rows;  /* the last row completed without abandoning */
} band_out;

/* Copy table row `len` into the band: its columns lo..hi, the ones the
 * sweep computed. */
static void band_emit(band_out *out, int64_t len, int64_t lo, int64_t hi, const double *row) {
    int64_t J;
    double *cells;
    out->rows = len;
    if (len < out->first)
        return;
    cells = out->cells + (len - out->first) * (2 * out->shift + 1);
    if (lo < len - out->shift)
        lo = len - out->shift;
    if (hi > len + out->shift)
        hi = len + out->shift;
    for (J = lo; J <= hi; J++)
        cells[J - len + out->shift] = row[J];
}

/* ------------------------------------------------------------------ */
/* warping: cell = cost (+ or max) min(up, diag, left)                 */
/* ------------------------------------------------------------------ */

/* One pair; prev and row are caller-provided scratch of m + 1 cells; out
 * is an optional band output (NULL for a plain value).  Called with a
 * constant use_max, so each aggregate compiles to its own loop. */
static inline double warp_pair(const double *q, int64_t n, const double *x, int64_t m,
                               int64_t d, int64_t kind, const int use_max, int64_t band,
                               double cutoff, double *prev, double *row, band_out *out) {
    int64_t i, J, lo, hi;

    for (J = 0; J <= m; J++)
        prev[J] = row[J] = INFINITY;
    /* Row 0 extends the empty alignment: cell (0, 0) is its cost alone. */
    prev[0] = 0.0;
    for (i = 0; i < n; i++) {
        const double *qi = q + i * d;
        double row_min = INFINITY;
        double *tmp;
        band_columns(i, m, band, &lo, &hi);
        /* What this row's loop and the next row read beyond lo..hi. */
        row[lo - 1] = INFINITY;
        if (hi < m)
            row[hi + 1] = INFINITY;
        for (J = lo; J <= hi; J++) {
            double c = elem_cost(qi, x + (J - 1) * d, d, kind);
            double best = dmin(dmin(prev[J - 1], prev[J]), row[J - 1]);
            double value = use_max ? (best > c ? best : c) : best + c;
            row[J] = value;
            row_min = dmin(row_min, value);
        }
        if (row_min > cutoff)
            return INFINITY;
        if (out != NULL)
            band_emit(out, i + 1, lo, hi, row);
        tmp = prev;
        prev = row;
        row = tmp;
    }
    return prev[m];
}

static double warp_sweep(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                         int64_t kind, int64_t use_max, int64_t band, double cutoff,
                         double *scratch, band_out *out) {
    if (use_max)
        return warp_pair(q, n, x, m, d, kind, 1, band, cutoff, scratch, scratch + m + 1, out);
    return warp_pair(q, n, x, m, d, kind, 0, band, cutoff, scratch, scratch + m + 1, out);
}

/* ------------------------------------------------------------------ */
/* edit: cell = min(diag + sub, up + del, left + ins)                  */
/* ------------------------------------------------------------------ */

/* One pair; del_costs (n) and ins (m) hold the gap costs, prev and row
 * are scratch of m + 1 cells. */
static double edit_pair(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                        int64_t mode, int64_t kind, const double *params, double eps,
                        const double *del_costs, const double *ins, double cutoff,
                        double *prev, double *row, band_out *out) {
    int64_t i, J;

    /* Row 0: the empty query prefix against every item prefix. */
    prev[0] = 0.0;
    for (J = 1; J <= m; J++)
        prev[J] = prev[J - 1] + ins[J - 1];
    for (i = 0; i < n; i++) {
        const double *qi = q + i * d;
        double delc = del_costs[i];
        double row_min;
        double *tmp;
        row[0] = prev[0] + delc;
        row_min = row[0];
        for (J = 1; J <= m; J++) {
            double diag =
                prev[J - 1] + edit_sub(qi, x + (J - 1) * d, d, mode, kind, params, eps);
            double value = dmin(dmin(diag, prev[J] + delc), row[J - 1] + ins[J - 1]);
            row[J] = value;
            row_min = dmin(row_min, value);
        }
        if (row_min > cutoff)
            return INFINITY;
        if (out != NULL)
            band_emit(out, i + 1, 1, m, row);
        tmp = prev;
        prev = row;
        row = tmp;
    }
    return prev[m];
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

/* The gap costs of a sequence's elements: insertions (which = 1) for an
 * item, deletions (which = 2) for a query. */
static void fill_gaps(const double *s, int64_t len, int64_t d, int64_t mode, int64_t kind,
                      const double *params, int64_t which, double *costs) {
    int64_t i;
    for (i = 0; i < len; i++)
        costs[i] = gap_cost(s + i * d, d, mode, kind, params, which);
}

/* Scratch of the edit sweeps: ins (m), del (n), two rows (m + 1 each),
 * carved out of one allocation. */
typedef struct {
    double *mem, *ins, *del_costs, *prev, *row;
} edit_scratch;

static int edit_scratch_alloc(edit_scratch *s, int64_t n, int64_t m) {
    s->mem = (double *)malloc((size_t)(m + n + 2 * (m + 1)) * sizeof(double));
    if (s->mem == NULL)
        return 1;
    s->ins = s->mem;
    s->del_costs = s->ins + m;
    s->prev = s->del_costs + n;
    s->row = s->prev + m + 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* exported entry points                                               */
/* ------------------------------------------------------------------ */

int repro_warp_value(const double *q, int64_t n, const double *x, int64_t m, int64_t d,
                     int64_t kind, int64_t use_max, int64_t band, double cutoff,
                     double *out) {
    double *scratch = (double *)malloc((size_t)(2 * (m + 1)) * sizeof(double));
    if (scratch == NULL)
        return 1;
    *out = warp_sweep(q, n, x, m, d, kind, use_max, band, cutoff, scratch, NULL);
    free(scratch);
    return 0;
}

int repro_warp_pairs(const double *qs, int64_t n, const int64_t *q_rows, const double *xs,
                     int64_t m, const int64_t *x_rows, int64_t k, int64_t d, int64_t kind,
                     int64_t use_max, int64_t band, const double *cutoffs, double *out) {
    int64_t p;
    double *scratch = (double *)malloc((size_t)(2 * (m + 1)) * sizeof(double));
    if (scratch == NULL)
        return 1;
    for (p = 0; p < k; p++) {
        const double *q = qs + (q_rows != NULL ? q_rows[p] : 0) * n * d;
        const double *x = xs + (x_rows != NULL ? x_rows[p] : p) * m * d;
        double cutoff = cutoffs != NULL ? cutoffs[p] : INFINITY;
        out[p] = warp_sweep(q, n, x, m, d, kind, use_max, band, cutoff, scratch, NULL);
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
    fill_gaps(x, m, d, mode, kind, params, 1, s.ins);
    fill_gaps(q, n, d, mode, kind, params, 2, s.del_costs);
    *out = edit_pair(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins, cutoff,
                     s.prev, s.row, NULL);
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
            fill_gaps(q, n, d, mode, kind, params, 2, s.del_costs);
            filled = q_row;
        }
        fill_gaps(x, m, d, mode, kind, params, 1, s.ins);
        out[p] = edit_pair(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins, cutoff,
                           s.prev, s.row, NULL);
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
    double *scratch = (double *)malloc((size_t)(2 * (m + 1)) * sizeof(double));
    if (scratch == NULL)
        return 1;
    warp_sweep(q, n, x, m, d, kind, use_max, band, cutoff, scratch, &out);
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
    fill_gaps(x, m, d, mode, kind, params, 1, s.ins);
    fill_gaps(q, n, d, mode, kind, params, 2, s.del_costs);
    edit_pair(q, n, x, m, d, mode, kind, params, eps, s.del_costs, s.ins, cutoff, s.prev,
              s.row, &out);
    free(s.mem);
    *rows = out.rows;
    return 0;
}
