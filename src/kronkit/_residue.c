/* The rejection sampler of kronkit.product_analysis._sample_valid_removals
 * for factors of at most 64 vertices and at most 64 labels, on numpy's
 * PCG64 stepped here from each trial's seeded state, and the verdicts of
 * kronkit.product_analysis._verdicts on the removals it accepts.
 *
 * A trial's seed is four words, the state's high and low halves, then the
 * increment's, of numpy's PCG64 seeded with [seed, t].  Each 64-bit word
 * advances the 128-bit state by state * PCG_MULT + inc and is then read
 * off the new state by XSL-RR: the high and low halves xored and rotated
 * right by the top 6 bits (O'Neill 2014, "PCG: A Family of Simple Fast
 * Space-Efficient Statistically Good Algorithms for Random Number
 * Generation").  A draw rebuilds Generator.choice(mn, size, replace=False)
 * from the words as numpy computes it for populations of at most 10000:
 * Floyd's algorithm, in which each j of mn - size .. mn - 1 draws a value
 * in 0 .. j and takes j itself when that value is already picked, then a
 * Fisher-Yates shuffle of the picked ids.  Every bounded draw is
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
 * The verdicts read the same masks: whether the auxiliary graph G* is
 * connected, by one search over a 64-bit fiber mask, and which fibers'
 * residues meet more than one component of the survivors, by a component
 * search over fibers that carries the labels reached in each.  Neither
 * builds the product.
 *
 * Python checks once per process that residue_choices gives numpy's output
 * on fixed streams, and draws in Python when it does not.
 *
 * Return codes: 0; -1 when a size is out of range.
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
#define PCG_MULT ((unsigned __int128)0x2360ED051FC65DA4ULL << 64 \
                  | 0x4385DF649FCCF645ULL)

struct stream {
    unsigned __int128 state, inc;
    uint32_t half;
    int has_half;
};

/* The stream of the four-word seed at seed. */
static struct stream seeded(const uint64_t *seed)
{
    struct stream s = {.state = (unsigned __int128)seed[0] << 64 | seed[1],
                       .inc = (unsigned __int128)seed[2] << 64 | seed[3]};
    return s;
}

/* numpy's next_uint32 for PCG64. */
static uint32_t next_half(struct stream *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    s->state = s->state * PCG_MULT + s->inc;
    uint64_t hi = (uint64_t)(s->state >> 64), rot = hi >> 58;
    uint64_t xored = hi ^ (uint64_t)s->state;
    uint64_t word = xored >> rot | xored << (-rot & 63);
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
        while (leftover < threshold) {
            m = (uint64_t)next_half(s) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Generator.choice(mn, size, replace=False) into ids, in numpy's order,
 * setting the bit of each picked id in picked, whose bits must be clear. */
static void choose(struct stream *s, int mn, int size, uint32_t *ids,
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

/* count consecutive draws of choice(mn, size, replace=False) from the
 * stream of the four-word seed, written to out in numpy's order. */
int residue_choices(const uint64_t *seed, int mn, int size, int count,
                    uint64_t *out)
{
    if (mn < 0 || mn > MAX_IDS || size < 0 || size > mn || count < 0)
        return OUT_OF_RANGE;
    struct stream s = seeded(seed);
    uint32_t ids[MAX_IDS];
    uint64_t picked[MAX_IDS / 64];
    for (int c = 0; c < count; c++) {
        memset(picked, 0, sizeof picked);
        choose(&s, mn, size, ids, picked);
        for (int k = 0; k < size; k++)
            out[(int64_t)c * size + k] = ids[k];
    }
    return 0;
}

/* The sampler over the streams of trials four-word seeds, laid out trial
 * by trial in seeds, for the product of the factor with adjacency masks adj
 * and K_n.  Per trial t it writes counts[2t] and counts[2t + 1]: the
 * rejections, which exceed cap exactly when cap + 1 draws in a row were
 * rejected, and the isolation-only rejections; on acceptance also the
 * removal's ids in ascending order to removed[t * size ..] and the fibers'
 * label masks to labels[t * order ..]. */
int residue_sample(int order, const uint64_t *adj, int n, int size,
                   const uint64_t *seeds, int trials, int64_t cap,
                   uint64_t *removed, uint64_t *labels, uint64_t *counts)
{
    if (order < 1 || order > MAX_FIBERS || n < 1 || n > MAX_LABELS
        || size < 0 || size > order * n || trials < 0)
        return OUT_OF_RANGE;
    int mn = order * n;
    uint64_t every = n == 64 ? UINT64_MAX : ((uint64_t)1 << n) - 1;
    uint32_t ids[MAX_IDS];
    uint64_t picked[MAX_IDS / 64];
    memset(picked, 0, sizeof picked);
    for (int t = 0; t < trials; t++) {
        struct stream s = seeded(seeds + 4 * (int64_t)t);
        uint64_t *lab = labels + (int64_t)t * order;
        int64_t rejections = 0, isolation_rejections = 0;
        while (rejections <= cap) {
            choose(&s, mn, size, ids, picked);
            for (int u = 0; u < order; u++)
                lab[u] = every;
            for (int k = 0; k < size; k++)
                lab[ids[k] / n] ^= (uint64_t)1 << (ids[k] % n);
            int empty = 0;
            for (int u = 0; u < order; u++)
                empty |= lab[u] == 0;
            int accepted = 0;
            if (empty) {
                rejections++;
            } else if (fiber_isolates(order, adj, lab)) {
                rejections++;
                isolation_rejections++;
            } else {
                accepted = 1;
                uint64_t *out = removed + (int64_t)t * size;
                for (int w = 0; w < (mn + 63) / 64; w++)
                    for (uint64_t bits = picked[w]; bits; bits &= bits - 1)
                        *out++ = (uint64_t)(64 * w + __builtin_ctzll(bits));
            }
            for (int k = 0; k < size; k++)
                picked[ids[k] >> 6] = 0;
            if (accepted)
                break;
        }
        counts[2 * t] = (uint64_t)rejections;
        counts[2 * t + 1] = (uint64_t)isolation_rejections;
    }
    return 0;
}

/* 1 when the auxiliary graph G* of the fibers' label masks lab is
 * connected, else 0.  G* keeps the factor edge i ~ j unless lab[i] ==
 * lab[j] with one bit set, as kronkit.product_analysis.build_gstar reads it. */
static uint64_t gstar_connected(int order, const uint64_t *adj, const uint64_t *lab)
{
    uint64_t every = order == 64 ? UINT64_MAX : ((uint64_t)1 << order) - 1;
    uint64_t reached = 1, todo = 1;
    while (todo) {
        int i = __builtin_ctzll(todo);
        todo &= todo - 1;
        uint64_t next = adj[i] & ~reached;
        if ((lab[i] & (lab[i] - 1)) == 0)
            for (uint64_t a = next; a; a &= a - 1)
                if (lab[__builtin_ctzll(a)] == lab[i])
                    next &= ~(a & -a);
        reached |= next;
        todo |= next;
    }
    return reached == every;
}

/* The mask of the fibers whose residue meets more than one component of the
 * survivors of the factor with adjacency masks adj times K_n, one component
 * searched at a time over fibers: reach[v] holds the labels of fiber v that
 * the component has reached, and rest[v] those that no component has.  From
 * fiber x, (x, a) ~ (v, b) exactly when x ~ v and a != b, so a neighbour v
 * gains rest[v] when reach[x] holds two labels or more, and rest[v] without
 * that label when it holds one. */
static uint64_t split_fibers(int order, const uint64_t *adj, const uint64_t *lab)
{
    uint64_t rest[MAX_FIBERS], reach[MAX_FIBERS] = {0}, split = 0;
    memcpy(rest, lab, (size_t)order * sizeof *rest);
    for (int u = 0; u < order; u++) {
        while (rest[u]) {
            reach[u] = rest[u] & -rest[u];
            uint64_t todo = (uint64_t)1 << u, touched = todo;
            while (todo) {
                int x = __builtin_ctzll(todo);
                todo &= todo - 1;
                uint64_t barred = (reach[x] & (reach[x] - 1)) ? 0 : reach[x];
                for (uint64_t a = adj[x]; a; a &= a - 1) {
                    int v = __builtin_ctzll(a);
                    uint64_t gain = rest[v] & ~barred & ~reach[v];
                    if (gain) {
                        reach[v] |= gain;
                        todo |= a & -a;
                        touched |= a & -a;
                    }
                }
            }
            for (; touched; touched &= touched - 1) {
                int v = __builtin_ctzll(touched);
                if (reach[v] != lab[v])
                    split |= (uint64_t)1 << v;
                rest[v] &= ~reach[v];
                reach[v] = 0;
            }
        }
    }
    return split;
}

/* The verdicts on count trials' label masks, laid out trial by trial in
 * labels as residue_sample writes them, over the factor with adjacency
 * masks adj.  Per trial t it writes out[2t], 1 when G* is connected, else
 * 0, and out[2t + 1], the mask of the split fibers.  Every mask must be
 * nonempty for the verdicts to mean anything; a spent trial's are not. */
int residue_verdicts(int order, const uint64_t *adj, const uint64_t *labels,
                     int count, uint64_t *out)
{
    if (order < 1 || order > MAX_FIBERS || count < 0)
        return OUT_OF_RANGE;
    for (int t = 0; t < count; t++) {
        const uint64_t *lab = labels + (int64_t)t * order;
        out[2 * (int64_t)t] = gstar_connected(order, adj, lab);
        out[2 * (int64_t)t + 1] = split_fibers(order, adj, lab);
    }
    return 0;
}
