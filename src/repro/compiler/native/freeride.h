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

/* the op codes of struct freeride_ro's op table */
enum freeride_op { FREERIDE_ADD = 0, FREERIDE_MIN = 1, FREERIDE_MAX = 2 };

/* the reduction objects of a delta epoch: the committed one and the three
 * scratch objects that the appended tail, the retracted elements and the
 * replayed elements are reduced into.  Bit 1 << role of a commit's `held`
 * says that role's scratch object holds this epoch's elements. */
enum freeride_role {
    FREERIDE_COMMITTED = 0,
    FREERIDE_TAIL = 1,
    FREERIDE_RETRACT = 2,
    FREERIDE_REPLAY = 3
};

/* what freeride_retract returns when it refuses a batch */
enum freeride_retract_rc {
    FREERIDE_UNSORTED = -1,  /* not strictly ascending: sort, dedup, retry */
    FREERIDE_OUT_OF_RANGE = -2,
    FREERIDE_RETRACTED = -3  /* a position is already tombstoned */
};

/* a delta session as its epoch loops see it: built once per session, one
 * pointer replaced when the session replaces the buffer behind it */
struct freeride_epoch {
    /* the layout all four objects share (as in struct freeride_ro) and the
     * identity of each element */
    const long long *off, *n, *op;
    const double *identity;
    long long groups;
    /* per role (enum freeride_role): elements and touched flags */
    double *acc[4];
    _Bool *touched[4];
    _Bool *live;              /* one per element position */
    long long *starts, *ends; /* the runs a loop cuts, room for cap */
    long long cap;
    /* per group, set by a commit's first half: the tail writes it, the
     * retraction hit it, its pre-image is saved */
    _Bool *merged, *hit, *saved;
    /* the pre-images: elements (group after group) and touched flags of
     * the saved groups, their counts, and the groups both tail and
     * retraction name */
    double *values;
    _Bool *bits;
    long long saved_groups, saved_cells, hits;
};

/* epoch.c's entries.  retract: check positions idx[0..m) strictly ascending,
 * in [0, n) and live, and cut their runs; with tombstone set, also mark
 * them dead.  Returns the run count, or a freeride_retract_rc having
 * changed no liveness.  live_runs: the runs of live positions inside the
 * blocks [blocks[2b], blocks[2b+1]), b < nblocks, clipped to [0, n); at most
 * cap are stored, the count is returned.  commit_save: the commit up to
 * the seam; commit_apply: the rest when apply is set, then the scratch
 * objects that `held` names emptied either way. */
typedef long long freeride_retract(struct freeride_epoch *e, const long long *idx,
                                   long long m, long long n, long long tombstone);
typedef long long freeride_live_runs(struct freeride_epoch *e, const long long *blocks,
                                     long long nblocks, long long n);
typedef void freeride_commit_save(struct freeride_epoch *e, long long held);
typedef void freeride_commit_apply(struct freeride_epoch *e, long long held, long long apply);

#endif
