/* The vertex-split flow network of kronkit.connectivity, for graphs of any
 * order.  Each function follows the Python network that the tests keep as
 * their oracle (_SplitFlow in tests/oracles.py) step for step: the same
 * common-neighbour seeding, layered breadth-first search and lowest-node
 * trace-back in max_flow, and the same reachability searches in the same
 * stack order in separators as in its min_separators.  Every residual
 * search is counted in the network's header, and a function returns -1 at
 * the first search past the budget, so that Python raises
 * BudgetExceededError after exactly the searches the oracle would have
 * made.
 *
 * Node v is the in-node of vertex v and n + v its out-node.  A vertex mask
 * takes vw = ceil(n / 64) words and a node mask nw = ceil(2n / 64) words,
 * lowest bits first, except that nw is 2 up to 64 vertices.  Each function
 * is one always_inline body compiled twice: at the constant widths nw = 2,
 * vw = 1, which every graph of at most 64 vertices takes, and at the widths
 * of the order.
 *
 * A network is one array of 64-bit words, laid out as
 *
 *     [0] order n    [1] budget (int64)    [2] searches spent
 *     [3 .. 3 + n vw)   adjacency masks of the graph
 *     then 2n node masks base_out and 2n node masks base_in,
 *
 * filled by splitflow_init from the first 3 + n vw words.  The caller
 * writes those words itself for a plain graph; for a product G x K_times,
 * splitflow_product writes them from the factor G, the order n = |G| times
 * and the adjacency of vertex u times + a, the neighbours (w, b) with w ~ u
 * and b != a, and then runs the same init.  A residual
 * network is an array of 2n node masks, and none leaves the kernel:
 * splitflow_max_flow, vertex_connectivity's flow of one pair, keeps its
 * own and returns only the flow, and splitflow_min_cuts reads the cuts off
 * its networks itself.
 *
 * splitflow_min_cuts is the oracle's min_cuts in one call, and hands the
 * finished cut list to the caller once.  It takes Even's pair family from
 * family, which splitflow_pairs hands to vertex_connectivity too: the one
 * copy of the family and of the check that the graph is connected, by one
 * uncharged search over the adjacency masks, as the oracle checks before
 * its first flow.  It then runs the pairs' flows and reads the separators
 * of the pairs that attain the least flow, charging the same searches in
 * the same order, and lists each distinct cut once.  It then closes the
 * cuts under the label swaps, sorts them as Python sorts their id tuples,
 * and writes each cut's vertex ids and its witness, the lowest vertex
 * whose neighbourhood equals the cut; none of that searches or charges.
 * The cut list, and the residual network of each attaining pair, each
 * grow in a heap block that doubles as it fills.  The residual networks
 * are kept whole up to 64 vertices, and past them as the words in which
 * each differs from the base network, since whole networks of that width
 * would take more memory than the oracle's list of attaining networks,
 * which share their unchanged masks.
 *
 * Return codes: a count of cuts, pairs or flow units (>= 0); -1 at the
 * first search past the budget; -2 when a heap buffer cannot be allocated;
 * and, from splitflow_min_cuts and splitflow_pairs only, -3 when the graph
 * is disconnected, before any charged search.  On success these two hand
 * their result over in a heap block that the caller releases with
 * splitflow_free; on an error they have freed every buffer and hand over
 * none.  splitflow_max_flow frees its buffers before it returns.
 *
 * Build with the other kernel sources into one library, as kronkit._native
 * does: it lists the sources and the flags.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HEADER 3
/* The most vertices of the constant widths: 128 nodes in two words. */
#define NARROW 64
#define WORDS(bits) (((bits) + 63) / 64)
#define OVER_BUDGET -1
#define NO_MEMORY -2
#define DISCONNECTED -3
/* The constant-width bodies stay: without them super-sweep ran 4.9% slower
 * (alternated benchmark pairs, 2-core Xeon VM). */
#define BOTH_WIDTHS static inline __attribute__((always_inline))

/* The words of a node mask of order n. */
static inline int node_words(int n)
{
    return n <= NARROW ? 2 : WORDS(2 * n);
}

static inline int has(const uint64_t *m, int x)
{
    return m[x >> 6] >> (x & 63) & 1;
}

static inline void add(uint64_t *m, int x)
{
    m[x >> 6] |= (uint64_t)1 << (x & 63);
}

static inline void flip(uint64_t *m, int x)
{
    m[x >> 6] ^= (uint64_t)1 << (x & 63);
}

/* The lowest count bits, count clipped to 0 .. 64. */
static inline uint64_t low_bits(int count)
{
    return count >= 64 ? ~(uint64_t)0 : count <= 0 ? 0 : ((uint64_t)1 << count) - 1;
}

/* The 64 bits of the width-word mask m from bit `from` on, which may be
 * negative, reading the bits outside the mask as 0: word k of m >> j is
 * bits_from(m, width, 64 k + j), and of m << j bits_from(m, width, 64 k - j). */
static inline uint64_t bits_from(const uint64_t *m, int width, int from)
{
    int w = from >> 6, r = from & 63; /* w rounds down for negative from */
    uint64_t lo = w >= 0 && w < width ? m[w] : 0;
    uint64_t hi = w + 1 >= 0 && w + 1 < width ? m[w + 1] : 0;
    return r ? lo >> r | hi << (64 - r) : lo;
}

static inline uint64_t *base_out(uint64_t *net, int vw)
{
    return net + HEADER + net[0] * vw;
}

/* Count one residual search; nonzero once the budget is exceeded. */
static inline int charge(uint64_t *net)
{
    net[2] += 1;
    return (int64_t)net[2] > (int64_t)net[1];
}

/* The lowest bit of the width-word mask m, or -1 when it is empty. */
BOTH_WIDTHS int lowest(const uint64_t *m, int width)
{
    for (int w = 0; w < width; w++)
        if (m[w])
            return 64 * w + __builtin_ctzll(m[w]);
    return -1;
}

/* kronkit.graphs.reachable_mask over width-word masks: the nodes that
 * start reaches through adj inside within, start included, into seen. */
BOTH_WIDTHS void reach(const uint64_t *adj, int width, const uint64_t *within,
                       int start, uint64_t *seen)
{
    uint64_t frontier[width], acc[width];
    memset(seen, 0, sizeof frontier);
    add(seen, start);
    memcpy(frontier, seen, sizeof frontier);
    for (uint64_t any = 1; any;) {
        memset(acc, 0, sizeof acc);
        for (int w = 0; w < width; w++)
            for (uint64_t b = frontier[w]; b; b &= b - 1) {
                const uint64_t *m = adj + (size_t)(64 * w + __builtin_ctzll(b)) * width;
                for (int k = 0; k < width; k++)
                    acc[k] |= m[k];
            }
        any = 0;
        for (int k = 0; k < width; k++) {
            frontier[k] = acc[k] & within[k] & ~seen[k];
            seen[k] |= frontier[k];
            any |= frontier[k];
        }
    }
}

/* True when every vertex of the graph is reachable from vertex 0. */
BOTH_WIDTHS int connected(uint64_t *net, int vw)
{
    int n = (int)net[0];
    uint64_t full[vw], seen[vw];
    for (int k = 0; k < vw; k++)
        full[k] = low_bits(n - 64 * k);
    reach(net + HEADER, vw, full, 0, seen);
    return !memcmp(seen, full, sizeof seen);
}

BOTH_WIDTHS void init(uint64_t *net, int nw, int vw)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    uint64_t *out = base_out(net, vw), *in = out + (size_t)2 * n * nw;
    memset(out, 0, (size_t)4 * n * nw * sizeof *out);
    for (int v = 0; v < n; v++) {
        const uint64_t *a = adj + (size_t)v * vw;
        add(out + (size_t)v * nw, n + v);
        memcpy(out + (size_t)(n + v) * nw, a, vw * sizeof *a);
        for (int k = 0; k < nw; k++) /* adj[v] << n */
            in[(size_t)v * nw + k] = bits_from(a, vw, 64 * k - n);
        add(in + (size_t)(n + v) * nw, v);
    }
}

/* The flow of splitflow_max_flow; layers holds 2n + 1 node masks.  Unless
 * touched is NULL, it is set to the nodes whose masks the flow changed. */
BOTH_WIDTHS int max_flow(uint64_t *net, int nw, int vw, int s, int t,
                         int cutoff, uint64_t *out, uint64_t *layers,
                         uint64_t *touched)
{
    int n = (int)net[0];
    const uint64_t *base = base_out(net, vw);
    memcpy(out, base, (size_t)2 * n * nw * sizeof *out);
    int src = n + s, dst = t, flow = 0;
    uint64_t common[nw], seen[nw];
    for (int k = 0; k < nw; k++)
        common[k] = base[(size_t)src * nw + k] & base[(size_t)(n + t) * nw + k];
    if (touched)
        memset(touched, 0, sizeof seen);
    for (int m; flow < cutoff && (m = lowest(common, nw)) >= 0; flow++) {
        if (touched) {
            add(touched, t);
            add(touched, n + m);
            add(touched, m);
        }
        add(out + (size_t)t * nw, n + m);
        add(out + (size_t)(n + m) * nw, m);
        /* its vertex arc is used; s_out -> m can be undone */
        memset(out + (size_t)m * nw, 0, nw * sizeof *out);
        add(out + (size_t)m * nw, src);
        flip(common, m);
    }
    while (flow < cutoff) {
        if (charge(net))
            return OVER_BUDGET;
        memset(seen, 0, sizeof seen);
        add(seen, src);
        memcpy(layers, seen, sizeof seen);
        /* layers[depth] is the frontier of the search; each layer holds a
         * new node, so there are at most 2n + 1 of them. */
        int depth = 0;
        for (uint64_t any = 1; any && !has(seen, dst);) {
            const uint64_t *frontier = layers + (size_t)depth * nw;
            uint64_t *next = layers + (size_t)++depth * nw;
            memset(next, 0, sizeof seen);
            for (int w = 0; w < nw; w++)
                for (uint64_t b = frontier[w]; b; b &= b - 1) {
                    const uint64_t *m = out + (size_t)(64 * w + __builtin_ctzll(b)) * nw;
                    for (int k = 0; k < nw; k++)
                        next[k] |= m[k];
                }
            any = 0;
            for (int k = 0; k < nw; k++) {
                next[k] &= ~seen[k];
                seen[k] |= next[k];
                any |= next[k];
            }
        }
        if (!has(seen, dst))
            break;
        for (int y = dst; depth--;) {
            const uint64_t *layer = layers + (size_t)depth * nw;
            int x = -1;
            for (int w = 0; x < 0; w++)
                for (uint64_t b = layer[w]; b && x < 0; b &= b - 1)
                    if (has(out + (size_t)(64 * w + __builtin_ctzll(b)) * nw, y))
                        x = 64 * w + __builtin_ctzll(b);
            uint64_t *ox = out + (size_t)x * nw, *oy = out + (size_t)y * nw;
            if (touched) {
                add(touched, x);
                add(touched, y);
            }
            if (x - y == n || y - x == n) { /* a vertex arc, used or given back */
                flip(ox, y);
                add(oy, x);
            } else if (x >= n) { /* an edge arc: stays open, can now be undone */
                add(oy, x);
            } else { /* undoes the flow on edge arc y -> x */
                flip(ox, y);
            }
            y = x;
        }
        flow++;
    }
    return flow;
}

/* The flow of max_flow, in a residual network that the call keeps to
 * itself: on the stack with its layers up to 64 vertices, and past them in
 * one heap block, the residual network and then the layers.  The stack
 * buffer stays: a heap block at every order ran formula-sweep 2.2% slower. */
int splitflow_max_flow(uint64_t *net, int s, int t, int cutoff)
{
    int n = (int)net[0], nw = node_words(n);
    if (n <= NARROW) {
        uint64_t out[2 * NARROW * 2], layers[(2 * NARROW + 1) * 2];
        return max_flow(net, 2, 1, s, t, cutoff, out, layers, NULL);
    }
    uint64_t *out = malloc((size_t)(4 * n + 1) * nw * sizeof *out);
    if (!out)
        return NO_MEMORY;
    int flow = max_flow(net, nw, WORDS(n), s, t, cutoff, out,
                        out + (size_t)2 * n * nw, NULL);
    free(out);
    return flow;
}

/* A list of distinct vw-word cut masks, in a heap block that doubles as it
 * fills. */
struct cuts {
    uint64_t *masks;
    int64_t count, room;
};

/* Appends cut to list unless the list holds it already; returns 0, or -2
 * when the block cannot grow. */
BOTH_WIDTHS int append(struct cuts *list, int vw, const uint64_t *cut)
{
    for (int64_t i = 0; i < list->count; i++)
        if (!memcmp(list->masks + i * vw, cut, vw * sizeof *cut))
            return 0;
    if (list->count == list->room) {
        int64_t room = list->room ? 2 * list->room : 16;
        uint64_t *grown = realloc(list->masks, (size_t)room * vw * sizeof *grown);
        if (!grown)
            return NO_MEMORY;
        list->masks = grown;
        list->room = room;
    }
    memcpy(list->masks + list->count++ * vw, cut, vw * sizeof *cut);
    return 0;
}

/* Appends the vertex mask of each minimum s-t separator to list (append)
 * and returns 0; -1 at the first search past the budget and -2 when the
 * list cannot grow.  work holds 6n + 2 node masks. */
BOTH_WIDTHS int separators(uint64_t *net, int nw, int vw, int s, int t,
                           const uint64_t *out, struct cuts *list, uint64_t *work)
{
    int n = (int)net[0];
    size_t size = (size_t)2 * n * nw;
    const uint64_t *bout = base_out(net, vw), *bin = bout + size;
    uint64_t nodes[nw], inside[nw], outside[nw], flow_nodes[nw], within[nw];
    uint64_t reached[nw], cut[vw];
    for (int k = 0; k < nw; k++)
        nodes[k] = low_bits(2 * n - 64 * k);
    if (charge(net))
        return OVER_BUDGET;
    reach(out, nw, nodes, n + s, inside);
    add(inside, s);
    if (has(inside, t))
        return 0;
    memset(flow_nodes, 0, sizeof flow_nodes);
    for (int v = 0; v < n; v++)
        if (!has(out + (size_t)v * nw, n + v)) {
            add(flow_nodes, v);
            add(flow_nodes, n + v);
        }
    /* Only the flow nodes and the sink differ from the base network. */
    uint64_t *in = work, *stack = work + size;
    memcpy(in, bin, size * sizeof *in);
    memcpy(within, flow_nodes, sizeof within);
    add(within, t);
    for (int w = 0; w < nw; w++)
        for (uint64_t xs = within[w]; xs; xs &= xs - 1) {
            int x = 64 * w + __builtin_ctzll(xs);
            for (int k = 0; k < nw; k++)
                for (uint64_t ys = out[(size_t)x * nw + k] ^ bout[(size_t)x * nw + k];
                     ys; ys &= ys - 1)
                    flip(in + (size_t)(64 * k + __builtin_ctzll(ys)) * nw, x);
        }
    if (charge(net))
        return OVER_BUDGET;
    reach(in, nw, nodes, t, outside);
    add(outside, n + t);
    /* Entry i of the stack is its inside and outside masks at stack + 2i
     * nw.  Each branch decides at least one flow node, so the stack holds at
     * most one entry per flow node plus one. */
    int64_t top = 1;
    memcpy(stack, inside, sizeof inside);
    memcpy(stack + nw, outside, sizeof outside);
    while (top) {
        uint64_t *entry = stack + --top * 2 * nw;
        memcpy(inside, entry, sizeof inside);
        memcpy(outside, entry + nw, sizeof outside);
        int u = -1;
        for (int k = 0; k < nw && u < 0; k++) {
            uint64_t undecided = flow_nodes[k] & ~(inside[k] | outside[k]);
            if (undecided)
                u = 64 * k + __builtin_ctzll(undecided);
        }
        if (u < 0) {
            for (int k = 0; k < vw; k++) /* inside & ~(inside >> n), vertices only */
                cut[k] = inside[k] & ~bits_from(inside, nw, 64 * k + n)
                         & low_bits(n - 64 * k);
            if (append(list, vw, cut))
                return NO_MEMORY;
            continue;
        }
        if (charge(net))
            return OVER_BUDGET;
        for (int k = 0; k < nw; k++)
            within[k] = nodes[k] & ~inside[k];
        reach(out, nw, within, u, reached);
        for (int k = 0; k < nw; k++) {
            entry[k] = inside[k] | reached[k];
            entry[nw + k] = outside[k];
        }
        if (charge(net))
            return OVER_BUDGET;
        for (int k = 0; k < nw; k++)
            within[k] = nodes[k] & ~outside[k];
        reach(in, nw, within, u, reached);
        entry = stack + ++top * 2 * nw;
        for (int k = 0; k < nw; k++) {
            entry[k] = inside[k];
            entry[nw + k] = outside[k] | reached[k];
        }
        top++;
    }
    return 0;
}

BOTH_WIDTHS int degree(const uint64_t *m, int vw)
{
    int d = 0;
    for (int k = 0; k < vw; k++)
        d += __builtin_popcountll(m[k]);
    return d;
}

/* The pairs of _even_pairs in tests/oracles.py, in the same order, as
 * x[i], y[i]; returns how many.  With x NULL it only counts them. */
BOTH_WIDTHS int even_pairs(uint64_t *net, int vw, int labels, int *x, int *y)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    int s = 0;
    for (int v = 1; v < n; v++)
        if (degree(adj + (size_t)v * vw, vw) < degree(adj + (size_t)s * vw, vw))
            s = v;
    const uint64_t *as = adj + (size_t)s * vw;
    int count = 0;
    if (s % labels <= 1)
        for (int t = 0; t < n; t++)
            if (t != s && !has(as, t) && t % labels <= s % labels + 1) {
                if (x) {
                    x[count] = s;
                    y[count] = t;
                }
                count++;
            }
    for (int w = 0; w < vw; w++)
        for (uint64_t us = as[w]; us; us &= us - 1) {
            int u = 64 * w + __builtin_ctzll(us);
            const uint64_t *au = adj + (size_t)u * vw;
            if (u % labels > 1)
                continue;
            for (int k = w; k < vw; k++) /* neighbours of s past u, not of u */
                for (uint64_t vs = (k == w ? us & (us - 1) : as[k]) & ~au[k];
                     vs; vs &= vs - 1) {
                    int v = 64 * k + __builtin_ctzll(vs);
                    if (v % labels <= u % labels + 1) {
                        if (x) {
                            x[count] = u;
                            y[count] = v;
                        }
                        count++;
                    }
                }
        }
    return count;
}

/* Even's pair family, once an uncharged search finds the graph connected:
 * returns the count of even_pairs, and at *pairs a block of their first
 * vertices, then their second ones; -3, and no block, if disconnected. */
BOTH_WIDTHS int family(uint64_t *net, int vw, int labels, int **pairs)
{
    if (!connected(net, vw))
        return DISCONNECTED;
    int count = even_pairs(net, vw, labels, NULL, NULL);
    *pairs = malloc((2 * (size_t)count + 1) * sizeof **pairs); /* never 0 bytes */
    if (!*pairs)
        return NO_MEMORY;
    even_pairs(net, vw, labels, *pairs, *pairs + count);
    return count;
}

/* Writes each word in which the residual network out differs from the base
 * network, as its offset and then its value, to diff, and returns how many
 * words that takes.  Only the touched nodes can differ, so diff must hold
 * two words for each word of theirs.  Each of their words is written and
 * only the differing ones kept, which spares a branch. */
BOTH_WIDTHS size_t keep(uint64_t *diff, const uint64_t *out, const uint64_t *base,
                        const uint64_t *touched, int nw)
{
    size_t end = 0;
    for (int k = 0; k < nw; k++)
        for (uint64_t b = touched[k]; b; b &= b - 1)
            for (size_t w = (size_t)(64 * k + __builtin_ctzll(b)) * nw, last = w + nw;
                 w < last; w++) {
                diff[end] = w;
                diff[end + 1] = out[w];
                end += out[w] != base[w] ? 2 : 0;
            }
    return end;
}

/* Appends to list the vertex mask of every minimum cut that the pairs x[i],
 * y[i] = x[pairs + i] of family separate, each distinct cut once however
 * many pairs separate it, and returns 0; a complete graph, which has no
 * pairs, gets its n cuts that leave one vertex.  Returns -1 at the first
 * search past the budget and -2 when a buffer cannot be allocated. */
BOTH_WIDTHS int pair_cuts(uint64_t *net, int nw, int vw, const int *x, int pairs,
                          struct cuts *list)
{
    int n = (int)net[0];
    if (!pairs) {
        uint64_t cut[vw];
        for (int v = 0; v < n; v++) {
            for (int k = 0; k < vw; k++)
                cut[k] = low_bits(n - 64 * k);
            flip(cut, v);
            if (append(list, vw, cut))
                return NO_MEMORY;
        }
        return 0;
    }
    /* The work space of max_flow's layers, and then of separators; one
     * residual network; where each attaining pair's network starts in kept;
     * the indices of the attaining pairs. */
    size_t size = (size_t)2 * n * nw, space = (size_t)(6 * n + 2) * nw;
    uint64_t *work = malloc((space + size + pairs + 1) * sizeof *work
                            + (size_t)pairs * sizeof(int));
    if (!work)
        return NO_MEMORY;
    uint64_t *out = work + space, *start = out + size;
    const int *y = x + pairs;
    int *attaining = (int *)(start + pairs + 1);
    const uint64_t *base = base_out(net, vw);
    /* The residual network of the j-th attaining pair is kept in
     * kept[start[j] .. start[j + 1]): whole up to 64 vertices, and past
     * them as the words in which it differs from the base network (keep).
     * Whole networks stay: diffs at every order ran super-sweep 2.7% slower. */
    int whole = nw == 2;
    uint64_t *kept = NULL, touched[nw];
    size_t room = 0;
    int kappa = n - 1, count = 0, status = 0;
    start[0] = 0;
    for (int i = 0; i < pairs && !status; i++) {
        int value = max_flow(net, nw, vw, x[i], y[i], kappa, out, work,
                             whole ? NULL : touched);
        if (value < 0) {
            status = OVER_BUDGET;
            break;
        }
        if (value < kappa) {
            kappa = value;
            count = 0;
        }
        size_t most = whole ? size : 0;
        for (int k = 0; k < nw && !whole; k++)
            most += 2 * nw * (size_t)__builtin_popcountll(touched[k]);
        if (start[count] + most > room) {
            room = 2 * (start[count] + most);
            uint64_t *grown = realloc(kept, room * sizeof *kept);
            if (!grown) {
                status = NO_MEMORY;
                break;
            }
            kept = grown;
        }
        if (whole)
            memcpy(kept + start[count], out, size * sizeof *out);
        start[count + 1] = start[count]
            + (whole ? size : keep(kept + start[count], out, base, touched, nw));
        /* A flow stopped at the cutoff may hide a larger local
         * connectivity; its pair separates no minimum cut. */
        attaining[count++] = i;
    }
    memcpy(out, base, size * sizeof *out);
    for (int j = 0; j < count && !status; j++) {
        for (size_t e = start[j]; !whole && e < start[j + 1]; e += 2)
            out[kept[e]] = kept[e + 1];
        status = separators(net, nw, vw, x[attaining[j]], y[attaining[j]],
                            whole ? kept + start[j] : out, list, work);
        for (size_t e = start[j]; !whole && e < start[j + 1]; e += 2)
            out[kept[e]] = base[kept[e]];
    }
    free(kept);
    free(work);
    return status;
}

/* Appends to the cuts of list their images under the swaps of labels a and
 * a + 1, 1 <= a <= labels - 2, and the images of those, until the list is
 * closed, and returns 0; -2 when the list cannot grow. */
BOTH_WIDTHS int close_under_swaps(int n, int vw, int labels, struct cuts *list)
{
    uint64_t column[vw], low[vw], high[vw], image[vw]; /* column: the ids of label 0 */
    memset(column, 0, sizeof column);
    for (int v = 0; v < n; v += labels)
        add(column, v);
    for (int64_t i = 0; i < list->count; i++)
        for (int a = 1; a <= labels - 2; a++) {
            const uint64_t *mask = list->masks + i * vw; /* append may move it */
            for (int k = 0; k < vw; k++) { /* column << a and column << (a + 1) */
                low[k] = bits_from(column, vw, 64 * k - a);
                high[k] = bits_from(column, vw, 64 * k - a - 1);
            }
            for (int k = 0; k < vw; k++)
                image[k] = (mask[k] & ~(low[k] | high[k]))
                           | (mask[k] & low[k]) << 1 | (mask[k] & high[k]) >> 1
                           | (k > 0 ? (mask[k - 1] & low[k - 1]) >> 63 : 0)
                           | (k + 1 < vw ? (mask[k + 1] & high[k + 1]) << 63 : 0);
            if (append(list, vw, image))
                return NO_MEMORY;
        }
    return 0;
}

/* Whether cut mask a comes before b in the order of their sorted id tuples,
 * for masks of one size: the mask that holds the lowest id of either but
 * not both comes first. */
BOTH_WIDTHS int precedes(const uint64_t *a, const uint64_t *b, int vw)
{
    for (int k = 0; k < vw; k++)
        if (a[k] != b[k]) {
            uint64_t differ = a[k] ^ b[k];
            return (a[k] & differ & -differ) != 0;
        }
    return 0;
}

/* Sorts count distinct vw-word masks by precedes, by merging runs into tmp,
 * which holds as many. */
BOTH_WIDTHS void sort_cuts(uint64_t *cuts, int64_t count, int vw, uint64_t *tmp)
{
    for (int64_t run = 1; run < count; run *= 2) {
        for (int64_t lo = 0; lo < count; lo += 2 * run) {
            int64_t mid = lo + run < count ? lo + run : count;
            int64_t hi = lo + 2 * run < count ? lo + 2 * run : count;
            for (int64_t i = lo, j = mid, k = lo; k < hi; k++) {
                int left = j == hi || (i < mid && precedes(cuts + i * vw, cuts + j * vw, vw));
                memcpy(tmp + k * vw, cuts + (left ? i++ : j++) * vw, vw * sizeof *tmp);
            }
        }
        memcpy(cuts, tmp, (size_t)count * vw * sizeof *tmp);
    }
}

BOTH_WIDTHS int64_t min_cuts(uint64_t *net, int nw, int vw, int labels, int **result)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    int *x, pairs = family(net, vw, labels, &x);
    if (pairs < 0)
        return pairs;
    struct cuts list = {0};
    int status = pair_cuts(net, nw, vw, x, pairs, &list);
    free(x);
    if (!status)
        status = close_under_swaps(n, vw, labels, &list);
    /* A connected graph has at least one minimum cut, of kappa vertices. */
    int kappa = status ? 0 : degree(list.masks, vw);
    int *block = status ? NULL : malloc((list.count * (kappa + 1) + 1) * sizeof *block);
    uint64_t *tmp = block ? malloc(list.count * vw * sizeof *tmp) : NULL;
    if (!tmp) {
        free(block);
        free(list.masks);
        return status ? status : NO_MEMORY;
    }
    sort_cuts(list.masks, list.count, vw, tmp);
    free(tmp);
    int *ids = block + 1, *witness = ids + list.count * kappa;
    for (int64_t i = 0; i < list.count; i++) {
        const uint64_t *cut = list.masks + i * vw;
        witness[i] = -1;
        for (int v = 0; v < n; v++)
            if (!memcmp(adj + (size_t)v * vw, cut, vw * sizeof *cut)) {
                witness[i] = v;
                break;
            }
        for (int k = 0; k < vw; k++)
            for (uint64_t m = cut[k]; m; m &= m - 1)
                *ids++ = 64 * k + __builtin_ctzll(m);
    }
    free(list.masks);
    block[0] = kappa;
    *result = block;
    return list.count;
}

void splitflow_init(uint64_t *net)
{
    int n = (int)net[0];
    if (n <= NARROW)
        init(net, 2, 1);
    else
        init(net, node_words(n), WORDS(n));
}

/* splitflow_init for the product of the factor of order vertices with
 * adjacency masks adj, WORDS(order) words each, and K_times: writes the
 * order and the product's adjacency masks, with ids u times + a, into the
 * first 3 + n vw words of net, which must be zero, and runs init.  Row (u,
 * 0) is the fibers of the neighbours of u less label 0; row (u, a) is
 * copied from the fibers and loses label a instead. */
void splitflow_product(uint64_t *net, int order, const uint64_t *adj, int times)
{
    int n = order * times, vw = WORDS(n), fw = WORDS(order);
    uint64_t *rows = net + HEADER;
    net[0] = n;
    for (int u = 0; u < order; u++) {
        uint64_t *first = rows + (size_t)u * times * vw;
        const uint64_t *au = adj + (size_t)u * fw;
        for (int w = 0; w < order; w++)
            if (has(au, w))
                for (int lo = w * times, hi = lo + times; lo < hi; lo = (lo | 63) + 1)
                    first[lo >> 6] |= low_bits(hi - (lo & ~63)) & ~low_bits(lo & 63);
        for (int a = times - 1; a >= 0; a--) {
            uint64_t *row = first + (size_t)a * vw;
            if (a)
                memcpy(row, first, vw * sizeof *row);
            for (int w = 0; w < order; w++)
                if (has(au, w))
                    flip(row, w * times + a);
        }
    }
    splitflow_init(net);
}

/* family, for the per-pair flows of vertex_connectivity; charges no search. */
int splitflow_pairs(uint64_t *net, int labels, int **result)
{
    return family(net, WORDS((int)net[0]), labels, result);
}

/* The oracle's min_cuts in one call: every minimum cut of the graph, closed
 * under the label swaps, in lexicographic order of their sorted ids.  It
 * reads the cuts of the kept pairs (pair_cuts), closes them under the swaps
 * that generate the relabellings fixing the family's source
 * (close_under_swaps), which search nothing, and sorts them.  It returns
 * their count, and at *result a block of kappa, the size of every cut;
 * then the ids of each cut's vertices, in increasing order, kappa ints per
 * cut; then each cut's witness, the lowest vertex v whose neighbourhood
 * adj[v] equals the cut, or -1 when there is none. */
int64_t splitflow_min_cuts(uint64_t *net, int labels, int **result)
{
    int n = (int)net[0];
    return n <= NARROW
        ? min_cuts(net, 2, 1, labels, result)
        : min_cuts(net, node_words(n), WORDS(n), labels, result);
}

/* Releases a block that a splitflow_ function handed over. */
void splitflow_free(void *block)
{
    free(block);
}
