/* freeride.h: the native FREERIDE contract.  A generated kernel defines one
 * freeride_ranges entry, team.c drives it from its lanes, and Python reads
 * this text as its cffi declarations (with the # lines removed). */
#ifndef FREERIDE_H
#define FREERIDE_H

/* what a ranges entry returns: 0, or the code of the check that failed */
enum freeride_rc {
    FREERIDE_MAP_OOB = 10,  /* computeIndex level position out of range */
    FREERIDE_ROW_OOB = 11,  /* hoisted row index out of range */
    FREERIDE_RO_GROUP = 20, /* RO group id out of range */
    FREERIDE_RO_ELEM = 21,  /* RO element id out of range for its group */
    FREERIDE_RO_OP = 22,    /* RO update op does not match the group's op */
    /* added to the code when the failing statement is an RO update: its
     * ro_updates count is in the counters, but nothing was stored */
    FREERIDE_UNSTORED = 100
};

/* the reduction object a kernel stores into: group g's elements are
 * acc[off[g]] .. acc[off[g] + n[g] - 1], updated with op[g] */
struct freeride_ro {
    double *acc;
    const long long *off, *n, *op;
    long long groups;
    long long proven; /* bit s: proof site s needs no check on this layout */
    _Bool *touched;   /* per group: set by the first update */
};

/* reduce the element ranges [starts[i], ends[i]), i < n, of one dataset
 * segment whose first element is global element e0; bufs are the data
 * buffers, counters the OpCounters fields in order (added to) */
typedef long long freeride_ranges(
    long long n, const long long *starts, const long long *ends, long long e0,
    const unsigned char **bufs, const struct freeride_ro *ro, double *counters);

/* a lane of the team: the kernel it runs and the replica it stores into */
struct freeride_lane {
    freeride_ranges *fn;
    const struct freeride_ro *ro;
    double *counters;
    long long rc, splits, elements;
    unsigned int wake;
};

/* a wave: positions [0, n) of starts/ends, the first cut in segment 0;
 * position joined (-1: none) continues the range before it */
struct freeride_team {
    long long lanes, n, cut, joined, next;
    const long long *starts, *ends;
    const unsigned char **bufs[2];
    long long e0[2];
    unsigned int busy, poisoned, stop;
    struct freeride_lane *lane;
};

/* team.c's entries: a lane thread's whole life, one wave on lanes
 * [0, active), and the stop that ends every lane */
typedef void freeride_lane_main(struct freeride_team *t, long long k);
typedef void freeride_wave(struct freeride_team *t, long long active);
typedef void freeride_stop(struct freeride_team *t);

#endif
