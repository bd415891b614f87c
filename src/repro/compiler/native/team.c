/* the lane team runtime: lanes parked on futexes claim split positions */
#include <linux/futex.h>
#include <sys/syscall.h>
long syscall(long, ...);
#include "freeride.h"

freeride_lane_main __NATIVE_SYMBOL___lane;
freeride_wave __NATIVE_SYMBOL___run;
freeride_stop __NATIVE_SYMBOL___stop;

static void _park(unsigned int *word, unsigned int seen) {
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, 0, 0, 0);
}

static void _unpark(unsigned int *word) {
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, 1, 0, 0, 0);
}

/* claim batches until the wave is drained or a lane has failed */
static void _claim(struct freeride_team *t, struct freeride_lane *l) {
    long long per = 2 * t->lanes, first, take, end, lo, hi, rc, i;
    int s;
    for (;;) {
        first = __atomic_load_n(&t->next, __ATOMIC_RELAXED);
        do {
            if (__atomic_load_n(&t->poisoned, __ATOMIC_RELAXED) || first >= t->n)
                return;
            take = (t->n - first + per - 1) / per;
        } while (!__atomic_compare_exchange_n(&t->next, &first, first + take, 1,
                                              __ATOMIC_RELAXED, __ATOMIC_RELAXED));
        end = first + take;
        for (s = 0; s < 2; s++) { /* the claim's part in each segment */
            lo = s == 0 ? first : (first > t->cut ? first : t->cut);
            hi = s == 0 ? (end < t->cut ? end : t->cut) : end;
            if (lo >= hi) continue;
            rc = l->fn(hi - lo, t->starts + lo, t->ends + lo, t->e0[s], t->bufs[s],
                       l->ro, l->counters);
            if (rc != 0) {
                l->rc = rc;
                __atomic_store_n(&t->poisoned, 1, __ATOMIC_RELAXED);
                return;
            }
        }
        l->splits += take - (t->joined >= first && t->joined < end);
        for (i = first; i < end; i++) l->elements += t->ends[i] - t->starts[i];
    }
}

/* a lane thread's whole life: park, run each wave it is woken for, leave on stop */
void __NATIVE_SYMBOL___lane(struct freeride_team *t, long long k) {
    struct freeride_lane *l = &t->lane[k];
    unsigned int seen = 0, now;
    for (;;) {
        while ((now = __atomic_load_n(&l->wake, __ATOMIC_ACQUIRE)) == seen)
            _park(&l->wake, seen);
        seen = now;
        if (__atomic_load_n(&t->stop, __ATOMIC_ACQUIRE)) return;
        _claim(t, l);
        if (__atomic_sub_fetch(&t->busy, 1, __ATOMIC_ACQ_REL) == 0) _unpark(&t->busy);
    }
}

/* publish the wave to lanes [0, active) and wait until every one has left it */
void __NATIVE_SYMBOL___run(struct freeride_team *t, long long active) {
    unsigned int busy;
    long long k;
    t->next = 0;
    t->poisoned = 0;
    __atomic_store_n(&t->busy, (unsigned int)active, __ATOMIC_RELAXED);
    for (k = 0; k < active; k++) {
        struct freeride_lane *l = &t->lane[k];
        l->rc = l->splits = l->elements = 0;
        __atomic_add_fetch(&l->wake, 1, __ATOMIC_RELEASE);
        _unpark(&l->wake);
    }
    while ((busy = __atomic_load_n(&t->busy, __ATOMIC_ACQUIRE)) != 0) _park(&t->busy, busy);
}

void __NATIVE_SYMBOL___stop(struct freeride_team *t) {
    long long k;
    __atomic_store_n(&t->stop, 1, __ATOMIC_RELEASE);
    for (k = 0; k < t->lanes; k++) {
        __atomic_add_fetch(&t->lane[k].wake, 1, __ATOMIC_RELEASE);
        _unpark(&t->lane[k].wake);
    }
}
