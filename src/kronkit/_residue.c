/* The rejection sampler of kronkit.product_analysis._sample_valid_removals
 * for factors of at most 64 vertices and at most 64 labels, fed from a
 * cached prefix of each trial's PCG64 output instead of a generator.
 *
 * Trial t reads the first 64-bit words that numpy's PCG64 seeded with
 * [seed, t] yields.  A draw rebuilds Generator.choice(mn, size,
 * replace=False) from them as numpy computes it for populations of at most
 * 10000: Floyd's algorithm, in which each j of mn - size .. mn - 1 draws a
 * value in 0 .. j and takes j itself when that value is already picked,
 * then a Fisher-Yates shuffle of the picked ids.  Every bounded draw is
 * numpy's Lemire method on 32-bit halves, so a value in 0 .. 0 takes no
 * half, and the shuffle's draws are made although only the set of picked
 * ids is kept.  A word gives two halves, low first, and a half left over by
 * one draw starts the next, as numpy keeps it in the bit generator.
 *
 * The checks are those of the Python loop, read per fiber: labels[u] is
 * the label mask of fiber u's survivors, a draw is rejected when some mask
 * is 0, and otherwise when a survivor (u, x) has no surviving neighbour,
 * that is when the masks of u's neighbours, together, lie inside {x}.
 *
 * Python checks once per process that residue_choices gives numpy's output
 * on fixed streams, and draws in Python when it does not.
 *
 * Return codes: 0; -1 when a size is out of range; 1 (residue_choices
 * only) when the words run out.
 *
 * Build, with _splitflow.c and _canon.c into one library as kronkit._native
 * does:
 *     cc -O2 -shared -fPIC -o kernel.so _splitflow.c _canon.c _residue.c
 */

#include <stdint.h>
#include <string.h>

#define MAX_FIBERS 64
#define MAX_LABELS 64
#define MAX_IDS (MAX_FIBERS * MAX_LABELS)
#define OUT_OF_RANGE -1
#define PAST_END 1

/* Per-trial outcomes in residue_sample's counts. */
#define ACCEPTED 0
#define SPENT 1       /* cap + 1 draws in a row were rejected */
#define PAST_PREFIX 2 /* the trial needs more words than its prefix holds */

struct stream {
    const uint64_t *next, *end;
    uint32_t half;
    int has_half;
    int past_end;
};

/* numpy's next_uint32 for PCG64; 0 once the words run out. */
static uint32_t next_half(struct stream *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    if (s->next == s->end) {
        s->past_end = 1;
        return 0;
    }
    uint64_t word = *s->next++;
    s->half = (uint32_t)(word >> 32);
    s->has_half = 1;
    return (uint32_t)word;
}

/* A value in 0 .. bound, as numpy's buffered_bounded_lemire_uint32. */
static uint32_t bounded(struct stream *s, uint32_t bound)
{
    if (bound == 0)
        return 0;
    uint32_t excl = bound + 1;
    uint64_t m = (uint64_t)next_half(s) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - bound) % excl;
        while (leftover < threshold && !s->past_end) {
            m = (uint64_t)next_half(s) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Generator.choice(mn, size, replace=False) into ids, in numpy's order,
 * setting the bit of each picked id in picked, whose bits must be clear.
 * Nonzero when the stream ran out, and then ids holds no draw. */
static int choose(struct stream *s, int mn, int size, uint32_t *ids,
                  uint64_t *picked)
{
    for (int j = mn - size; j < mn; j++) {
        uint32_t v = bounded(s, (uint32_t)j);
        if (picked[v >> 6] >> (v & 63) & 1)
            v = (uint32_t)j;
        picked[v >> 6] |= (uint64_t)1 << (v & 63);
        ids[j - mn + size] = v;
    }
    for (int i = size - 1; i > 0; i--) {
        uint32_t j = bounded(s, (uint32_t)i);
        uint32_t id = ids[j];
        ids[j] = ids[i];
        ids[i] = id;
    }
    return s->past_end;
}

/* kronkit.product_analysis._fiber_isolates over adjacency masks. */
static int fiber_isolates(int order, const uint64_t *adj, const uint64_t *labels)
{
    for (int u = 0; u < order; u++) {
        uint64_t seen = 0;
        for (uint64_t a = adj[u]; a; a &= a - 1)
            seen |= labels[__builtin_ctzll(a)];
        if ((seen & (seen - 1)) == 0 && (seen == 0 || seen & labels[u]))
            return 1;
    }
    return 0;
}

/* count consecutive draws of choice(mn, size, replace=False) from one
 * stream of nwords words, written to out in numpy's order. */
int residue_choices(const uint64_t *words, int64_t nwords, int mn, int size,
                    int count, uint64_t *out)
{
    if (mn < 0 || mn > MAX_IDS || size < 0 || size > mn || count < 0)
        return OUT_OF_RANGE;
    struct stream s = {words, words + nwords, 0, 0, 0};
    uint32_t ids[MAX_IDS];
    uint64_t picked[MAX_IDS / 64];
    for (int c = 0; c < count; c++) {
        memset(picked, 0, sizeof picked);
        if (choose(&s, mn, size, ids, picked))
            return PAST_END;
        for (int k = 0; k < size; k++)
            out[(int64_t)c * size + k] = ids[k];
    }
    return 0;
}

/* The sampler over trials streams of prefix words each, laid out trial by
 * trial in words, for the product of the factor with adjacency masks adj
 * and K_n.  Per trial t it writes counts[3t .. 3t + 2]: the rejections, the
 * isolation-only rejections and the outcome; on ACCEPTED also the removal's
 * ids in ascending order to removed[t * size ..] and the fibers' label
 * masks to labels[t * order ..]. */
int residue_sample(int order, const uint64_t *adj, int n, int size,
                   const uint64_t *words, int trials, int64_t prefix,
                   int64_t cap, uint64_t *removed, uint64_t *labels,
                   uint64_t *counts)
{
    if (order < 1 || order > MAX_FIBERS || n < 1 || n > MAX_LABELS
        || size < 0 || size > order * n || trials < 0 || prefix < 0)
        return OUT_OF_RANGE;
    int mn = order * n;
    uint64_t every = n == 64 ? UINT64_MAX : ((uint64_t)1 << n) - 1;
    uint32_t ids[MAX_IDS];
    uint64_t picked[MAX_IDS / 64];
    memset(picked, 0, sizeof picked);
    for (int t = 0; t < trials; t++) {
        const uint64_t *first = words + t * prefix;
        struct stream s = {first, first + prefix, 0, 0, 0};
        uint64_t *lab = labels + (int64_t)t * order;
        int64_t rejections = 0, isolation_rejections = 0;
        uint64_t outcome = SPENT;
        while (rejections <= cap) {
            int past_end = choose(&s, mn, size, ids, picked);
            int rejected = 1;
            if (past_end) {
                outcome = PAST_PREFIX;
            } else {
                for (int u = 0; u < order; u++)
                    lab[u] = every;
                for (int k = 0; k < size; k++)
                    lab[ids[k] / n] ^= (uint64_t)1 << (ids[k] % n);
                int empty = 0;
                for (int u = 0; u < order; u++)
                    empty |= lab[u] == 0;
                if (empty) {
                    rejections++;
                } else if (fiber_isolates(order, adj, lab)) {
                    rejections++;
                    isolation_rejections++;
                } else {
                    rejected = 0;
                    outcome = ACCEPTED;
                    uint64_t *out = removed + (int64_t)t * size;
                    for (int w = 0; w < (mn + 63) / 64; w++)
                        for (uint64_t bits = picked[w]; bits; bits &= bits - 1)
                            *out++ = (uint64_t)(64 * w + __builtin_ctzll(bits));
                }
            }
            for (int k = 0; k < size; k++)
                picked[ids[k] >> 6] = 0;
            if (past_end || !rejected)
                break;
        }
        counts[3 * t] = (uint64_t)rejections;
        counts[3 * t + 1] = (uint64_t)isolation_rejections;
        counts[3 * t + 2] = outcome;
    }
    return 0;
}
