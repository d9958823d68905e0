/* The residue sampler of kronkit.product_analysis, for factors and n of any
 * size: numpy's seeded PCG64 streams, Generator.choice(mn, size,
 * replace=False) rebuilt from their words, the rejection loop over
 * (n-1)*delta removals of G x K_n, and the verdicts on the removals.
 *
 * A stream is four words, the state's high and low halves, then the
 * increment's.  Each 64-bit word advances the 128-bit state by state *
 * PCG_MULT + inc and is read off it by XSL-RR (O'Neill 2014, "PCG: A Family
 * of Simple Fast Space-Efficient Statistically Good Algorithms for Random
 * Number Generation").  seed_stream seeds a stream as numpy's
 * PCG64(entropy): SeedSequence hashes the entropy's 32-bit words into a
 * pool of four, generate_state(4) reads four 64-bit words off the pool, and
 * PCG64 takes the first two as its initial state, the last two as its
 * stream.  residue_sample seeds each trial's stream so, from the run's seed
 * and the trial's index, and residue_seed hands a stream to Python.  choose
 * rebuilds Generator.choice as numpy computes it, with numpy's Lemire draws
 * on 32-bit halves, a half left over by one draw starting the next.
 *
 * A mask of fibers takes fw = ceil(order / 64) words and a mask of labels
 * lw = ceil(n / 64), lowest bits first: adj holds the factor's adjacency
 * masks, and lab[u] the label mask of fiber u's survivors, which stay in
 * the caller's buffer from residue_sample to residue_verdicts.  A draw is
 * rejected when some lab[u] is 0, and otherwise when a survivor (u, x) has
 * no surviving neighbour: when the masks of u's neighbours, together, lie
 * inside {x}.  The verdicts are searches over fibers that never build the
 * product.  Each check is inlined twice, once for one-word masks.
 *
 * Return codes: 0; -1 when a size is out of range; -2 when a buffer cannot
 * be allocated.  Build with the other kernel sources into one library, as
 * kronkit._native does: it lists the sources and the flags.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define OUT_OF_RANGE -1
#define NO_MEMORY -2
#define MAX_ENTROPY 8
#define PCG_MULT ((unsigned __int128)0x2360ED051FC65DA4ULL << 64 \
                  | 0x4385DF649FCCF645ULL)
#define WORDS(bits) (((bits) + 63) / 64)
#define BIT(i) ((uint64_t)1 << ((i) & 63))
#define LOW(x) __builtin_ctzll(x)
#define BOTH_WIDTHS static inline __attribute__((always_inline))
/* The searches' fiber masks, of a type apart from the label masks' so that
 * the compiler knows that a label write leaves them be. */
typedef unsigned long long fibers;

struct stream {
    unsigned __int128 state, inc;
    uint64_t word;
    int has_half;
};

static struct stream seeded(const uint64_t *seed)
{
    return (struct stream){.state = (unsigned __int128)seed[0] << 64 | seed[1],
                           .inc = (unsigned __int128)seed[2] << 64 | seed[3]};
}

static void store(const struct stream *s, uint64_t *seed)
{
    uint64_t words[4] = {s->state >> 64, s->state, s->inc >> 64, s->inc};
    memcpy(seed, words, sizeof words);
}

/* numpy's next_uint64 for PCG64. */
static uint64_t next_word(struct stream *s)
{
    s->state = s->state * PCG_MULT + s->inc;
    uint64_t hi = (uint64_t)(s->state >> 64), rot = hi >> 58;
    uint64_t xored = hi ^ (uint64_t)s->state;
    return xored >> rot | xored << (-rot & 63);
}

/* numpy's next_uint32 for PCG64: a new word's low half, then its high. */
static uint32_t next_half(struct stream *s)
{
    s->has_half = !s->has_half;
    return (uint32_t)(s->has_half ? (s->word = next_word(s)) : s->word >> 32);
}

/* SeedSequence's hash of value, which advances the hash constant. */
static uint32_t hashmix(uint32_t value, uint32_t *hash, uint32_t mult)
{
    value ^= *hash;
    *hash *= mult;
    value *= *hash;
    return value ^ value >> 16;
}

/* The stream of numpy's PCG64 seeded with the count integers of entropy,
 * count in 1 .. MAX_ENTROPY. */
static struct stream seed_stream(const uint64_t *entropy, int count)
{
    uint32_t words[2 * MAX_ENTROPY], pool[4], hash = 0x43B0D7E5;
    int size = 0;
    for (int i = 0; i < count; i++) {
        words[size++] = (uint32_t)entropy[i];
        if (entropy[i] >> 32)
            words[size++] = (uint32_t)(entropy[i] >> 32);
    }
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < size ? words[i] : 0, &hash, 0x931E8875);
    /* SeedSequence's mix of each pool word into every other, then of each
     * word past the fourth into every pool word. */
    for (int src = 0; src < (size > 4 ? size : 4); src++)
        for (int dst = 0; dst < 4; dst++) {
            if (src == dst)
                continue;
            uint32_t y = hashmix(src < 4 ? pool[src] : words[src], &hash, 0x931E8875);
            uint32_t mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * y;
            pool[dst] = mixed ^ mixed >> 16;
        }
    uint64_t state[4] = {0};
    hash = 0x8B51F9DD;
    for (int i = 0; i < 8; i++)
        state[i / 2] |= (uint64_t)hashmix(pool[i % 4], &hash, 0x58F38DED) << 32 * (i % 2);
    struct stream init = seeded(state), s = {.inc = init.inc << 1 | 1};
    next_word(&s);
    s.state += init.state;
    next_word(&s);
    return s;
}

/* seed_stream of the count integers of entropy, at most MAX_ENTROPY of
 * them, written to seed. */
int residue_seed(const uint64_t *entropy, int count, uint64_t *seed)
{
    if (count < 1 || count > MAX_ENTROPY)
        return OUT_OF_RANGE;
    struct stream s = seed_stream(entropy, count);
    store(&s, seed);
    return 0;
}

/* count consecutive 64-bit words of the stream at seed, written to out;
 * the stream at seed is left advanced past them. */
void residue_words(uint64_t *seed, int count, uint64_t *out)
{
    struct stream s = seeded(seed);
    for (int i = 0; i < count; i++)
        out[i] = next_word(&s);
    store(&s, seed);
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

/* numpy's _shuffle_int: each i from count - 1 down to first swaps ids[i]
 * with ids[j], j in 0 .. i. */
static void shuffle(struct stream *s, uint32_t *ids, int count, int first)
{
    for (int i = count - 1; i >= first; i--) {
        uint32_t j = bounded(s, (uint32_t)i), id = ids[j];
        ids[j] = ids[i];
        ids[i] = id;
    }
}

/* Generator.choice(mn, size, replace=False) into ids[0 .. size - 1], in
 * numpy's order, setting the bit of each picked id in picked, whose bits
 * must be clear; ids has room for mn ids.  Past a population of 10000 with
 * size > mn / 50, numpy shuffles the tail of 0 .. mn - 1 and draws its last
 * size entries.  Otherwise it runs Floyd's algorithm, in which each j of mn
 * - size .. mn - 1 draws a value in 0 .. j and takes j itself when that
 * value is already picked, then shuffles the picked ids. */
static void choose(struct stream *s, int mn, int size, uint32_t *ids,
                   uint64_t *picked)
{
    if (mn > 10000 && size > mn / 50) {
        for (int i = 0; i < mn; i++)
            ids[i] = (uint32_t)i;
        shuffle(s, ids, mn, mn - size > 1 ? mn - size : 1);
        memmove(ids, ids + mn - size, (size_t)size * sizeof *ids);
        for (int k = 0; k < size; k++)
            picked[ids[k] >> 6] |= BIT(ids[k]);
        return;
    }
    for (int j = mn - size; j < mn; j++) {
        uint32_t v = bounded(s, (uint32_t)j);
        if (picked[v >> 6] & BIT(v))
            v = (uint32_t)j;
        picked[v >> 6] |= BIT(v);
        ids[j - mn + size] = v;
    }
    shuffle(s, ids, size, 1);
}

/* count consecutive draws of choice(mn, size, replace=False) from the
 * stream at seed, written to out in numpy's order. */
int residue_choices(const uint64_t *seed, int mn, int size, int count,
                    uint64_t *out)
{
    if (mn < 0 || size < 0 || size > mn || count < 0)
        return OUT_OF_RANGE;
    uint32_t *ids = malloc(((size_t)mn + 1) * sizeof *ids);
    uint64_t *picked = malloc(((size_t)WORDS(mn) + 1) * sizeof *picked);
    int code = ids && picked ? 0 : NO_MEMORY;
    struct stream s = seeded(seed);
    for (int c = 0; !code && c < count; c++) {
        memset(picked, 0, (size_t)WORDS(mn) * sizeof *picked);
        choose(&s, mn, size, ids, picked);
        for (int k = 0; k < size; k++)
            out[(int64_t)c * size + k] = ids[k];
    }
    free(ids);
    free(picked);
    return code;
}

/* 0 when the width-word mask x is empty, 1 when it has one bit, else more. */
BOTH_WIDTHS int ones(const uint64_t *x, int width)
{
    int found = 0;
    for (int w = 0; w < width && found < 2; w++)
        found += x[w] ? 1 + ((x[w] & (x[w] - 1)) != 0) : 0;
    return found;
}

/* Why the draw of ids[0 .. size - 1] is rejected: 1 when it empties a
 * fiber, 2 when it isolates a survivor, else 0; the fibers' label masks are
 * left in lab. */
BOTH_WIDTHS int rejection(int order, int fw, const uint64_t *adj, int n, int lw,
                          const uint32_t *ids, int size, uint64_t *lab)
{
    memset(lab, 0xFF, (size_t)order * lw * sizeof *lab);
    for (int64_t u = lw - 1; n % 64 && u < (int64_t)order * lw; u += lw)
        lab[u] = BIT(n) - 1;
    for (int k = 0; k < size; k++)
        lab[(int64_t)(ids[k] / n) * lw + ids[k] % n / 64] ^= BIT(ids[k] % n);
    for (int64_t u = 0; u < (int64_t)order * lw; u += lw)
        if (ones(lab + u, lw) == 0)
            return 1;
    for (int u = 0; u < order; u++) {
        int found = 0;
        uint64_t outside = 0;
        for (int w = 0; w < lw && found < 2 && !outside; w++) {
            uint64_t seen = 0;
            for (int y = 0; y < fw; y++)
                for (uint64_t a = adj[(int64_t)u * fw + y]; a; a &= a - 1)
                    seen |= lab[(int64_t)(64 * y + LOW(a)) * lw + w];
            found += ones(&seen, 1);
            outside = seen & ~lab[(int64_t)u * lw + w];
        }
        if (found < 2 && !outside)
            return 2;
    }
    return 0;
}

/* The sampler of trials trials for the factor with adjacency masks adj
 * times K_n, trial t drawing from the stream that numpy's PCG64 seeds with
 * [seed, t].  Per trial t it writes the rejections to counts[2t], past cap
 * exactly when cap + 1 draws in a row were, and the isolation-only ones to
 * counts[2t + 1]; on acceptance also the removal's ids, ascending, to
 * removed[t * size] on, and the fibers' label masks to labels[t * order *
 * lw] on, where residue_verdicts reads them. */
int residue_sample(int order, const uint64_t *adj, int n, int size,
                   uint64_t seed, int trials, int64_t cap,
                   uint64_t *removed, uint64_t *labels, uint64_t *counts)
{
    if (order < 1 || n < 1 || (int64_t)order * n > INT_MAX || size < 0
        || size > order * n || trials < 0)
        return OUT_OF_RANGE;
    int mn = order * n, fw = WORDS(order), lw = WORDS(n);
    uint32_t *ids = malloc((size_t)mn * sizeof *ids);
    uint64_t *picked = calloc((size_t)WORDS(mn), sizeof *picked);
    int code = ids && picked ? 0 : NO_MEMORY;
    for (int t = 0; !code && t < trials; t++) {
        struct stream s = seed_stream((const uint64_t[]){seed, (uint64_t)t}, 2);
        uint64_t *lab = labels + (int64_t)t * order * lw;
        int64_t rejections = 0, isolation_rejections = 0;
        while (rejections <= cap) {
            choose(&s, mn, size, ids, picked);
            int why = fw == 1 && lw == 1
                ? rejection(order, 1, adj, n, 1, ids, size, lab)
                : rejection(order, fw, adj, n, lw, ids, size, lab);
            rejections += why != 0;
            isolation_rejections += why == 2;
            uint64_t *out = removed + (int64_t)t * size;
            for (int w = 0; !why && w < WORDS(mn); w++)
                for (uint64_t bits = picked[w]; bits; bits &= bits - 1)
                    *out++ = (uint64_t)(64 * w + LOW(bits));
            for (int k = 0; k < size; k++)
                picked[ids[k] >> 6] = 0;
            if (!why)
                break;
        }
        counts[2 * t] = (uint64_t)rejections;
        counts[2 * t + 1] = (uint64_t)isolation_rejections;
    }
    free(ids);
    free(picked);
    return code;
}

/* 1 when G* of the label masks lab is connected, else 0, with the fibers
 * whose residue meets more than one component of the survivors set in
 * split; todo must be empty.  G* keeps the factor edge i ~ j unless lab[i]
 * == lab[j] with one bit set, as product_analysis.build_gstar reads it.
 * Components are searched one at a time: reach[v] holds the labels of
 * fiber v that this one reached, and rest[v] those that none has.  As (x,
 * a) ~ (v, b) exactly when x ~ v and a != b, a neighbour v gains rest[v]
 * when reach[x] holds two labels or more, else rest[v] but that label. */
BOTH_WIDTHS int verdicts(int order, int fw, const uint64_t *adj, int lw,
                         const uint64_t *lab, uint64_t *rest, uint64_t *reach,
                         fibers *todo, fibers *touched, uint64_t *split)
{
    fibers *reached = touched;
    int found = 0;
    memset(reached, 0, (size_t)fw * sizeof *reached);
    reached[0] = todo[0] = 1;
    for (int w = 0; w < fw; w = todo[w] ? w : w + 1) {
        if (!todo[w])
            continue;
        int i = 64 * w + LOW(todo[w]);
        const uint64_t *x = lab + (int64_t)i * lw;
        todo[w] &= todo[w] - 1;
        found++;
        for (int y = 0; y < fw; y++) {
            uint64_t next = adj[(int64_t)i * fw + y] & ~reached[y];
            for (uint64_t a = ones(x, lw) == 1 ? next : 0; a; a &= a - 1)
                if (!memcmp(x, lab + (int64_t)(64 * y + LOW(a)) * lw, lw * sizeof *x))
                    next &= ~(a & -a);
            reached[y] |= next;
            todo[y] |= next;
            w = next && y < w ? y : w;
        }
    }
    memset(touched, 0, (size_t)fw * sizeof *touched);
    memcpy(rest, lab, (size_t)order * lw * sizeof *rest);
    memset(reach, 0, (size_t)order * lw * sizeof *reach);
    for (int64_t r = 0; r < (int64_t)order * lw; r++)
        while (rest[r]) {
            int u = (int)(r / lw);
            reach[r] = rest[r] & -rest[r];
            todo[u >> 6] = touched[u >> 6] = BIT(u);
            for (int w = 0; w < fw; w = todo[w] ? w : w + 1) {
                if (!todo[w])
                    continue;
                int v = 64 * w + LOW(todo[w]);
                const uint64_t *rx = reach + (int64_t)v * lw;
                uint64_t barred = ones(rx, lw) == 1 ? UINT64_MAX : 0;
                todo[w] &= todo[w] - 1;
                for (int y = 0; y < fw; y++)
                    for (uint64_t a = adj[(int64_t)v * fw + y]; a; a &= a - 1) {
                        int64_t at = (int64_t)(64 * y + LOW(a)) * lw;
                        uint64_t gained = 0, *rv = reach + at;
                        const uint64_t *sv = rest + at;
                        for (int k = 0; k < lw; k++) {
                            uint64_t gain = sv[k] & ~(barred & rx[k]) & ~rv[k];
                            rv[k] |= gain;
                            gained |= gain;
                        }
                        todo[y] |= gained ? a & -a : 0;
                        touched[y] |= gained ? a & -a : 0;
                        w = gained && y < w ? y : w;
                    }
            }
            for (int y = 0; y < fw; y++)
                for (; touched[y]; touched[y] &= touched[y] - 1) {
                    int64_t v = 64 * y + LOW(touched[y]);
                    uint64_t differs = 0;
                    for (int64_t k = v * lw; k < (v + 1) * lw; k++) {
                        differs |= reach[k] ^ lab[k];
                        rest[k] &= ~reach[k];
                        reach[k] = 0;
                    }
                    split[y] |= differs ? BIT(v) : 0;
                }
        }
    return found == order;
}

/* The verdicts on count trials' label masks of n labels each, laid out as
 * residue_sample writes them, over the factor with adjacency masks adj: per
 * trial t, connected[t], 1 when G* is connected, else 0, and the split
 * fibers' mask at split[t * fw].  Every mask must be nonempty for the
 * verdicts to mean anything; a spent trial's are not. */
int residue_verdicts(int order, const uint64_t *adj, int n,
                     const uint64_t *labels, int count, uint64_t *connected,
                     uint64_t *split)
{
    if (order < 1 || n < 1 || count < 0)
        return OUT_OF_RANGE;
    int fw = WORDS(order), lw = WORDS(n);
    uint64_t *rest = calloc(2 * (size_t)order * lw + 2 * (size_t)fw, sizeof *rest);
    if (!rest)
        return NO_MEMORY;
    uint64_t *reach = rest + (size_t)order * lw;
    fibers *todo = (fibers *)(reach + (size_t)order * lw);
    memset(split, 0, (size_t)count * fw * sizeof *split);
    for (int t = 0; t < count; t++) {
        const uint64_t *lab = labels + (int64_t)t * order * lw;
        uint64_t *out = split + (int64_t)t * fw;
        connected[t] = (uint64_t)(fw == 1 && lw == 1
            ? verdicts(order, 1, adj, 1, lab, rest, reach, todo, todo + fw, out)
            : verdicts(order, fw, adj, lw, lab, rest, reach, todo, todo + fw, out));
    }
    free(rest);
    return 0;
}
