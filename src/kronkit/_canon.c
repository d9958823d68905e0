/* Canonical forms of graphs of at most 16 vertices, and the table of seen
 * forms by which kronkit.corpus keeps one graph per isomorphism class of
 * its exhaustive corpora.
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
 * The seen keys of one layer of a corpus sit in an open-addressing table
 * with linear probing, which canon_seen_new allocates at SEEN_FIRST_SLOTS
 * slots and which doubles whenever it would pass three quarters full.  No
 * key sets the top byte of its high word, so a high word of all ones marks
 * an empty slot.  canon_new_children canonicalises every child of a parent
 * and writes out only those whose keys the table lacked, in the order it
 * finds them; canon_seen_free releases the table.
 *
 * Return codes: a count (>= 0), or -1 when the order is out of range, or
 * -2 when the table cannot grow; the table then keeps every key added so
 * far and is still released by canon_seen_free.
 *
 * Build with the other kernel sources into one library, as kronkit._native
 * does: it lists the sources and the flags.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CANON_MAX_ORDER 16
#define OUT_OF_RANGE -1
#define NO_MEMORY -2
#define SEEN_FIRST_SLOTS 1024
#define EMPTY UINT64_MAX

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

struct seen {
    uint64_t *slots; /* two words per slot, the key's low word first */
    size_t mask;     /* the number of slots, a power of two, less one */
    size_t count;
};

/* The table's slot for key: the one holding it, else the empty slot where
 * linear probing would put it. */
static uint64_t *probe(const struct seen *seen, uint64_t low, uint64_t high)
{
    uint64_t h = (low ^ high * 0x9e3779b97f4a7c15u) * 0xd6e8feb86659fd93u;
    for (size_t i = (h ^ h >> 32) & seen->mask;; i = (i + 1) & seen->mask) {
        uint64_t *slot = seen->slots + 2 * i;
        if (slot[1] == EMPTY || (slot[0] == low && slot[1] == high))
            return slot;
    }
}

/* Allocates slots empty slots, or returns NULL. */
static uint64_t *empty_slots(size_t slots)
{
    uint64_t *words = malloc(2 * slots * sizeof *words);
    if (words)
        memset(words, 0xff, 2 * slots * sizeof *words);
    return words;
}

/* Doubles the table; on a failed allocation it is left as it was. */
static int grow(struct seen *seen)
{
    size_t slots = seen->mask + 1;
    uint64_t *old = seen->slots, *words = empty_slots(2 * slots);
    if (!words)
        return NO_MEMORY;
    seen->slots = words;
    seen->mask = 2 * slots - 1;
    for (size_t i = 0; i < slots; i++)
        if (old[2 * i + 1] != EMPTY)
            memcpy(probe(seen, old[2 * i], old[2 * i + 1]), old + 2 * i, 2 * sizeof *old);
    free(old);
    return 0;
}

/* Adds key to the table: 1 when it is new, 0 when it was there already,
 * NO_MEMORY when the table had to grow and could not. */
static int add(struct seen *seen, canon_t key)
{
    uint64_t low = (uint64_t)key, high = (uint64_t)(key >> 64);
    uint64_t *slot = probe(seen, low, high);
    if (slot[1] != EMPTY)
        return 0;
    if (4 * (seen->count + 1) > 3 * (seen->mask + 1)) {
        if (grow(seen))
            return NO_MEMORY;
        slot = probe(seen, low, high);
    }
    slot[0] = low;
    slot[1] = high;
    seen->count++;
    return 1;
}

/* An empty table, or NULL when it cannot be allocated. */
struct seen *canon_seen_new(void)
{
    struct seen *seen = malloc(sizeof *seen);
    uint64_t *slots = seen ? empty_slots(SEEN_FIRST_SLOTS) : NULL;
    if (!slots) {
        free(seen);
        return NULL;
    }
    *seen = (struct seen){.slots = slots, .mask = SEEN_FIRST_SLOTS - 1};
    return seen;
}

void canon_seen_free(struct seen *seen)
{
    if (seen)
        free(seen->slots);
    free(seen);
}

/* For each subset from first_subset up to the last, 2^(order - 1) - 1, in
 * turn: adds to seen the key of the graph of the given order whose first
 * order - 1 vertices induce the parent and whose last vertex is adjacent
 * to exactly that subset, and when the key is new, writes the child's
 * order adjacency masks to the next order words of children.  Returns the
 * number of children written. */
int canon_new_children(struct seen *seen, int order, const uint64_t *parent_adj,
                       int first_subset, uint64_t *children)
{
    if (order < 1 || order > CANON_MAX_ORDER || first_subset < 0)
        return OUT_OF_RANGE;
    int last = order - 1, found = 0;
    uint16_t masks[CANON_MAX_ORDER];
    for (int subset = first_subset; subset < 1 << last; subset++) {
        for (int v = 0; v < last; v++)
            masks[v] = (uint16_t)(parent_adj[v] | (uint64_t)(subset >> v & 1) << last);
        masks[last] = (uint16_t)subset;
        int added = add(seen, canonical(masks, order));
        if (added < 0)
            return added;
        if (!added)
            continue;
        for (int v = 0; v < order; v++)
            *children++ = masks[v];
        found++;
    }
    return found;
}
