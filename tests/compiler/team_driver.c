/* The lane team without Python: team.c's lanes on pthreads, driven through
 * freeride.h, with a counting freeride_ranges in place of a kernel.
 *
 *     cc team_driver.c -I<repro/compiler/native> -O2 -pthread -o team_driver
 *     ./team_driver LANES WAVES
 *
 * Every wave hands positions [0, n) over two segments, one position joined
 * to the range before it; every seventh wave fails at its first position.
 * Prints one line of tallies: the positions of clean waves, and how many
 * were handed over exactly once; the failing waves, how many a lane
 * poisoned with the failure's code, and how many stopped short; the lanes
 * joined after the stop.  Exits 0 when those tallies and the lanes' split,
 * element and counter totals all add up, 1 otherwise.  Built with
 * -fsanitize=thread it is the team's race check. */
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>

#include "freeride.h"
#include "team.c"

#define MAX_LANES 8
#define MAX_POSITIONS 600
#define FAILED (FREERIDE_UNSTORED + FREERIDE_RO_ELEM)

static long long starts[MAX_POSITIONS], ends[MAX_POSITIONS];
/* per position: how often a lane was handed it, and which lane */
static long long handed[MAX_POSITIONS], by[MAX_POSITIONS];
static long long cut, fail_at = -1;
static const unsigned char *segment[2][1];

/* a freeride_ranges that counts: starts[i] is the position itself */
static long long count_ranges(long long n, const long long *s, const long long *e,
                              long long e0, const unsigned char **bufs,
                              const struct freeride_ro *ro, double *counters) {
    long long i, p;
    (void)e;
    for (i = 0; i < n; i++) {
        p = s[i];
        if (bufs != segment[p >= cut] || e0 != (p >= cut ? cut : 0)) return -1;
        if (p == fail_at) return FAILED;
        handed[p]++;
        by[p] = ro->groups;
        counters[0] += 1;
    }
    return 0;
}

static int failures;
static struct freeride_team team;

static void check(int ok, const char *what, long long wave) {
    if (!ok && failures++ < 10) fprintf(stderr, "wave %lld: %s\n", wave, what);
}

static void *lane_thread(void *arg) {
    __NATIVE_SYMBOL___lane(&team, (struct freeride_lane *)arg - team.lane);
    return 0;
}

int main(int argc, char **argv) {
    static struct freeride_lane lanes[MAX_LANES];
    static struct freeride_ro ros[MAX_LANES];
    static double counters[MAX_LANES][8];
    static const unsigned char data[2] = {0, 1};
    pthread_t threads[MAX_LANES];
    long long n_lanes = argc > 1 ? atoll(argv[1]) : 2;
    long long waves = argc > 2 ? atoll(argv[2]) : 1000;
    long long w, k, p, n, active, splits, elements, counted, rc;
    long long positions = 0, once = 0, failing = 0, poisoned = 0, short_ = 0, joined = 0;
    if (n_lanes < 1 || n_lanes > MAX_LANES || waves < 1 || waves > 10000) {
        fprintf(stderr, "usage: team_driver LANES(1-%d) WAVES(1-10000)\n", MAX_LANES);
        return 2;
    }
    segment[0][0] = data;
    segment[1][0] = data + 1;
    team.lanes = n_lanes;
    team.lane = lanes;
    team.starts = starts;
    team.ends = ends;
    team.bufs[0] = segment[0];
    team.bufs[1] = segment[1];
    for (k = 0; k < n_lanes; k++) {
        ros[k].groups = k;
        lanes[k].fn = count_ranges;
        lanes[k].ro = &ros[k];
        lanes[k].counters = counters[k];
        if (pthread_create(&threads[k], 0, lane_thread, &lanes[k]) != 0) {
            fprintf(stderr, "cannot start lane %lld\n", k);
            return 1;
        }
    }
    for (w = 0; w < waves; w++) {
        fail_at = w % 7 == 6 ? 0 : -1;
        /* a failing wave holds more positions than its first claim */
        n = fail_at < 0 ? 1 + (w * 7919) % (MAX_POSITIONS - 1)
                        : 2 * MAX_LANES + 1 + (w * 7919) % (MAX_POSITIONS - 2 * MAX_LANES - 1);
        cut = n / 3;
        for (p = 0; p < n; p++) {
            starts[p] = p;
            ends[p] = p + 1 + p % 3;
            handed[p] = 0;
            by[p] = -1;
        }
        team.n = n;
        team.cut = cut;
        team.joined = n > 1 ? n / 2 : -1;
        team.e0[0] = 0;
        team.e0[1] = cut;
        active = n < n_lanes ? n : n_lanes;
        for (k = 0; k < active; k++) counters[k][0] = 0;
        __NATIVE_SYMBOL___run(&team, active);
        counted = 0;
        for (p = 0; p < n; p++) {
            counted += handed[p];
            once += fail_at < 0 && handed[p] == 1;
            check(handed[p] <= 1, "a position was handed over twice", w);
        }
        splits = elements = rc = 0;
        for (k = 0; k < active; k++) {
            splits += lanes[k].splits;
            elements += lanes[k].elements;
            if (lanes[k].rc != 0) {
                check(lanes[k].rc == FAILED && rc == 0, "an unexpected return code", w);
                rc = lanes[k].rc;
                check(by[0] == -1, "the failing position was counted", w);
            }
        }
        if (fail_at < 0) {
            positions += n;
            check(rc == 0 && !team.poisoned, "a clean wave was poisoned", w);
            for (k = 0; k < active; k++) {
                long long mine = 0;
                for (p = 0; p < n; p++) mine += by[p] == k;
                check(counters[k][0] == mine, "a lane's counters miss its positions", w);
            }
            check(splits == n - (team.joined >= 0), "the lanes' splits do not add up", w);
            for (p = 0; p < n; p++) elements -= ends[p] - starts[p];
            check(elements == 0, "the lanes' elements do not add up", w);
        } else {
            failing++;
            poisoned += rc == FAILED && team.poisoned;
            short_ += counted < n;
        }
    }
    __NATIVE_SYMBOL___stop(&team);
    for (k = 0; k < n_lanes; k++) joined += pthread_join(threads[k], 0) == 0;
    printf("lanes %lld waves %lld positions %lld once %lld failing %lld poisoned %lld "
           "short %lld joined %lld\n", n_lanes, waves, positions, once, failing, poisoned,
           short_, joined);
    return failures || once != positions || poisoned != failing || short_ != failing
           || joined != n_lanes;
}
