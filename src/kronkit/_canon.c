/* Canonical forms of graphs of at most 16 vertices, by which
 * kronkit.corpus deduplicates its exhaustive corpora with one set lookup
 * per candidate.
 *
 * The form is found by individualisation-refinement (McKay and Piperno
 * 2014, "Practical graph isomorphism, II").  An ordered partition of the
 * vertices is refined to an equitable one: a cell splits by the counts of
 * its vertices' neighbours in a splitter cell, into fragments in ascending
 * count order, and the next splitter is the active cell of least position.
 * Every decision reads only cell positions and counts, never a vertex
 * label, so relabelling the graph relabels every partition of the search
 * tree alike.  Each vertex of the first non-singleton cell is then
 * individualised in turn, and the search recurses until the partition is
 * discrete.  A discrete partition orders the vertices; the key is the
 * least upper-triangle adjacency, packed row by row, over all such leaves.
 *
 * Twins, u and v with N(u) \ {v} = N(v) \ {u}, are tried once per cell:
 * their swap is an automorphism that fixes every individualised vertex,
 * so it maps the partition of one subtree onto the other's and the two
 * subtrees reach the same packed adjacencies.
 *
 * A key is two 64-bit words, low then high, of the C(16, 2) = 120 packed
 * bits.  Keys of graphs of one order are equal exactly when the graphs
 * are isomorphic.
 *
 * Return codes: 0, or -1 when the order is out of range.
 *
 * Build, with _splitflow.c and _residue.c into one library as kronkit._native
 * does:
 *     cc -O2 -shared -fPIC -o kernel.so _splitflow.c _canon.c _residue.c
 */

#include <stdint.h>
#include <string.h>

#define CANON_MAX_ORDER 16
#define OUT_OF_RANGE -1

typedef unsigned __int128 canon_t;

/* lab lists the vertices cell by cell; bit p of starts is set when a cell
 * starts at position p. */
struct partition {
    unsigned char lab[CANON_MAX_ORDER];
    uint32_t starts;
};

struct search {
    const uint16_t *adj;
    uint16_t twins[CANON_MAX_ORDER];
    int n;
    canon_t best; /* above every 120-bit key until the first leaf */
};

/* One past the last position of the cell that starts at p. */
static inline int cell_end(uint32_t starts, int p, int n)
{
    uint32_t later = starts >> (p + 1) << (p + 1);
    return later ? __builtin_ctz(later) : n;
}

/* Refines pi to the coarsest equitable partition finer than it, starting
 * from the splitters at the positions in active.  A cell that is not
 * active when it splits adds all of its fragments but the first largest,
 * as in McKay's refinement procedure. */
static void refine(const uint16_t *adj, int n, struct partition *pi,
                   uint32_t active)
{
    uint32_t discrete = ((uint32_t)1 << n) - 1;
    unsigned char count[CANON_MAX_ORDER], sorted[CANON_MAX_ORDER];
    while (active && pi->starts != discrete) {
        int s = __builtin_ctz(active);
        active &= active - 1;
        uint32_t splitter = 0;
        for (int i = s, end = cell_end(pi->starts, s, n); i < end; i++)
            splitter |= (uint32_t)1 << pi->lab[i];
        for (int p = 0, end; p < n; p = end) {
            end = cell_end(pi->starts, p, n);
            if (end - p == 1)
                continue;
            int least = CANON_MAX_ORDER, most = 0;
            for (int i = p; i < end; i++) {
                int c = __builtin_popcount(adj[pi->lab[i]] & splitter);
                count[i] = (unsigned char)c;
                least = c < least ? c : least;
                most = c > most ? c : most;
            }
            if (least == most)
                continue;
            int size[CANON_MAX_ORDER + 1] = {0}, next[CANON_MAX_ORDER + 1];
            for (int i = p; i < end; i++)
                size[count[i]]++;
            uint32_t fragments = 0;
            int largest = p, largest_size = 0;
            for (int c = least, q = p; c <= most; q += size[c++]) {
                if (!size[c])
                    continue;
                next[c] = q;
                fragments |= (uint32_t)1 << q;
                if (size[c] > largest_size) {
                    largest = q;
                    largest_size = size[c];
                }
            }
            for (int i = p; i < end; i++)
                sorted[next[count[i]]++] = pi->lab[i];
            memcpy(pi->lab + p, sorted + p, (size_t)(end - p));
            pi->starts |= fragments;
            if (active >> p & 1)
                active |= fragments;
            else
                active |= fragments & ~((uint32_t)1 << largest);
        }
    }
}

/* The upper triangle of the graph with vertex lab[i] renamed i, row 0 in
 * the highest bits. */
static canon_t pack(const struct search *st, const unsigned char *lab)
{
    int n = st->n;
    unsigned char position[CANON_MAX_ORDER];
    for (int i = 0; i < n; i++)
        position[lab[i]] = (unsigned char)i;
    canon_t key = 0;
    for (int i = 0; i < n; i++) {
        uint32_t row = 0;
        for (uint32_t us = st->adj[lab[i]]; us; us &= us - 1)
            row |= (uint32_t)1 << position[__builtin_ctz(us)];
        key = key << (n - 1 - i) | row >> (i + 1);
    }
    return key;
}

static void descend(struct search *st, struct partition pi, uint32_t active)
{
    int n = st->n;
    refine(st->adj, n, &pi, active);
    /* A position that starts a cell whose next position does not. */
    uint32_t wide = pi.starts & ~(pi.starts >> 1) & (((uint32_t)1 << (n - 1)) - 1);
    if (!wide) {
        canon_t key = pack(st, pi.lab);
        if (key < st->best)
            st->best = key;
        return;
    }
    int p = __builtin_ctz(wide);
    uint32_t tried = 0;
    for (int i = p, end = cell_end(pi.starts, p, n); i < end; i++) {
        int v = pi.lab[i];
        if (st->twins[v] & tried)
            continue;
        tried |= (uint32_t)1 << v;
        struct partition child = pi;
        child.lab[i] = child.lab[p];
        child.lab[p] = (unsigned char)v;
        child.starts |= (uint32_t)1 << (p + 1);
        descend(st, child, (uint32_t)1 << p);
    }
}

static canon_t canonical(const uint16_t *adj, int n)
{
    struct search st = {.adj = adj, .n = n, .best = ~(canon_t)0};
    if (n <= 1)
        return 0;
    for (int u = 0; u < n; u++)
        for (int v = u + 1; v < n; v++)
            if ((adj[u] & ~(1u << v)) == (adj[v] & ~(1u << u))) {
                st.twins[u] |= (uint16_t)(1u << v);
                st.twins[v] |= (uint16_t)(1u << u);
            }
    struct partition unit = {.starts = 1};
    for (int v = 0; v < n; v++)
        unit.lab[v] = (unsigned char)v;
    descend(&st, unit, 1);
    return st.best;
}

static inline void store(uint64_t *key, canon_t value)
{
    key[0] = (uint64_t)value;
    key[1] = (uint64_t)(value >> 64);
}

/* Writes the key of the graph with the given adjacency masks to key[0..2). */
int canon_key(int order, const uint64_t *adj, uint64_t *key)
{
    if (order < 0 || order > CANON_MAX_ORDER)
        return OUT_OF_RANGE;
    uint16_t masks[CANON_MAX_ORDER];
    for (int v = 0; v < order; v++)
        masks[v] = (uint16_t)adj[v];
    store(key, canonical(masks, order));
    return 0;
}

/* Writes to keys[2i .. 2i + 2) the key of the graph of the given order
 * whose first order - 1 vertices induce the parent and whose last vertex
 * is adjacent to exactly the vertices of subset first_subset + i, for
 * every subset from first_subset up to the last, 2^(order - 1) - 1. */
int canon_children(int order, const uint64_t *parent_adj, int first_subset,
                   uint64_t *keys)
{
    if (order < 1 || order > CANON_MAX_ORDER || first_subset < 0)
        return OUT_OF_RANGE;
    int last = order - 1;
    uint16_t adj[CANON_MAX_ORDER];
    for (int subset = first_subset; subset < 1 << last; subset++) {
        for (int v = 0; v < last; v++)
            adj[v] = (uint16_t)(parent_adj[v] | (uint64_t)(subset >> v & 1) << last);
        adj[last] = (uint16_t)subset;
        store(keys + 2 * (subset - first_subset), canonical(adj, order));
    }
    return 0;
}
