/* the lane team and its lanes: team.c's structs, and team.py's cffi cdef */
struct repro_lane {
    unsigned long long fn, acc, ro_off, ro_n, ro_op, touched, counters;
    long long groups, proven;
    long long rc, splits, elements;
    unsigned int wake;
};
struct repro_team {
    long long lanes, n, cut, joined, next;
    const long long *starts, *ends;
    const unsigned char **bufs[2];
    long long e0[2];
    unsigned int busy, poisoned, stop;
    struct repro_lane *lane;
};
