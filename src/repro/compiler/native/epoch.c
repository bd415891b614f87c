/* a delta epoch's bookkeeping: the retraction's checks, tombstones and runs,
 * the replay's live runs, and the checkpointed commit in two halves around
 * the fault seam.  Built into the lane team's artifact; the NumPy path of
 * repro.freeride.delta is its reference, bit for bit. */
#include "freeride.h"

freeride_retract __NATIVE_SYMBOL___retract;
freeride_live_runs __NATIVE_SYMBOL___live_runs;
freeride_commit_save __NATIVE_SYMBOL___commit_save;
freeride_commit_apply __NATIVE_SYMBOL___commit_apply;

/* fold t into a with op: fmin/fmax ignore a NaN t and give way to a NaN a,
 * and a tie of two zeros keeps a, as an in-order kernel's strict compare
 * keeps the earlier value (reduction_object._merge_into) */
static double _merge(long long op, double a, double t) {
    if (op == FREERIDE_ADD) return a + t;
    if (op == FREERIDE_MIN) return (t < a || a != a) ? t : a;
    return (t > a || a != a) ? t : a;
}

/* touched_mask's rule: flagged, or any element other than its identity */
static _Bool _written(const struct freeride_epoch *e, int role, long long g) {
    const double *acc = e->acc[role];
    long long c, hi = e->off[g] + e->n[g];
    if (e->touched[role][g]) return 1;
    for (c = e->off[g]; c < hi; c++)
        if (acc[c] != e->identity[c]) return 1;
    return 0;
}

long long __NATIVE_SYMBOL___retract(struct freeride_epoch *e, const long long *idx,
                                    long long m, long long n, long long tombstone) {
    long long i, k = 0;
    int outside = 0, dead = 0;
    /* the first refusal of sorted positions: one out of range, else one dead */
    for (i = 0; i < m; i++) {
        if (i > 0 && idx[i] <= idx[i - 1]) return FREERIDE_UNSORTED;
        if (idx[i] < 0 || idx[i] >= n) {
            outside = 1;
            continue;
        }
        dead |= !e->live[idx[i]];
        if (k > 0 && idx[i] == e->ends[k - 1]) {
            e->ends[k - 1] = idx[i] + 1;
        } else {
            e->starts[k] = idx[i];
            e->ends[k++] = idx[i] + 1;
        }
    }
    if (outside) return FREERIDE_OUT_OF_RANGE;
    if (dead) return FREERIDE_RETRACTED;
    if (tombstone)
        for (i = 0; i < m; i++) e->live[idx[i]] = 0;
    return k;
}

long long __NATIVE_SYMBOL___live_runs(struct freeride_epoch *e, const long long *blocks,
                                      long long nblocks, long long n) {
    long long b, p, hi, start, k = 0;
    for (b = 0; b < nblocks; b++) {
        p = blocks[2 * b] > 0 ? blocks[2 * b] : 0;
        hi = blocks[2 * b + 1] < n ? blocks[2 * b + 1] : n;
        while (p < hi) {
            while (p < hi && !e->live[p]) p++;
            if (p == hi) break;
            start = p;
            while (p < hi && e->live[p]) p++;
            if (k < e->cap) {
                e->starts[k] = start;
                e->ends[k] = p;
            }
            k++;
        }
    }
    return k;
}

void __NATIVE_SYMBOL___commit_save(struct freeride_epoch *e, long long held) {
    double *acc = e->acc[FREERIDE_COMMITTED], *tail = e->acc[FREERIDE_TAIL];
    _Bool merged, hit;
    long long g, c, hi, saved = 0, cells = 0, hits = 0;
    for (g = 0; g < e->groups; g++) {
        hi = e->off[g] + e->n[g];
        e->merged[g] = merged = (held >> FREERIDE_TAIL & 1) && _written(e, FREERIDE_TAIL, g);
        e->hit[g] = hit = (held >> FREERIDE_RETRACT & 1) && _written(e, FREERIDE_RETRACT, g);
        e->saved[g] = merged || hit;
        if (!(merged || hit)) continue;
        for (c = e->off[g]; c < hi; c++) e->values[cells++] = acc[c];
        e->bits[saved++] = e->touched[FREERIDE_COMMITTED][g];
        hits += merged && hit;
        if (merged) {
            for (c = e->off[g]; c < hi; c++) acc[c] = _merge(e->op[g], acc[c], tail[c]);
            e->touched[FREERIDE_COMMITTED][g] = 1;
        }
    }
    e->saved_groups = saved;
    e->saved_cells = cells;
    e->hits = hits;
}

void __NATIVE_SYMBOL___commit_apply(struct freeride_epoch *e, long long held,
                                    long long apply) {
    double *acc = e->acc[FREERIDE_COMMITTED], *retract = e->acc[FREERIDE_RETRACT];
    double *replay = e->acc[FREERIDE_REPLAY];
    const double *id = e->identity;
    _Bool rebuilt;
    long long g, c, lo, hi, role;
    for (g = 0; g < e->groups; g++) {
        lo = e->off[g];
        hi = lo + e->n[g];
        rebuilt = (held >> FREERIDE_REPLAY & 1) && _written(e, FREERIDE_REPLAY, g);
        if (apply && (held >> FREERIDE_RETRACT & 1) && e->hit[g]) {
            if (e->op[g] == FREERIDE_ADD) {
                for (c = lo; c < hi; c++) acc[c] = acc[c] - retract[c];
            } else if (held >> FREERIDE_REPLAY & 1) {
                for (c = lo; c < hi; c++) acc[c] = _merge(e->op[g], id[c], replay[c]);
                e->touched[FREERIDE_COMMITTED][g] = rebuilt;
            }
        }
        if ((held >> FREERIDE_TAIL & 1) && e->merged[g])
            for (c = lo; c < hi; c++) e->acc[FREERIDE_TAIL][c] = id[c];
        if ((held >> FREERIDE_RETRACT & 1) && e->hit[g])
            for (c = lo; c < hi; c++) retract[c] = id[c];
        if (rebuilt)
            for (c = lo; c < hi; c++) replay[c] = id[c];
    }
    for (role = FREERIDE_TAIL; role <= FREERIDE_REPLAY; role++)
        if (held >> role & 1)
            for (g = 0; g < e->groups; g++) e->touched[role][g] = 0;
}
