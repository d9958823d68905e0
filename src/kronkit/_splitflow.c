/* The vertex-split flow network of kronkit.connectivity._SplitFlow for
 * graphs of at most 64 vertices, whose 128 nodes fit one unsigned __int128
 * mask.  Each function follows the Python method of the same name step for
 * step: the same common-neighbour seeding, layered breadth-first search and
 * lowest-node trace-back in max_flow, and the same reachability searches in
 * the same stack order in min_separators.  Every residual search is counted
 * in the network's header, and a function returns -1 at the first search
 * past the budget, so that Python raises BudgetExceededError after exactly
 * the searches its own network would have made.
 *
 * A network is one array of 64-bit words, laid out as
 *
 *     [0] order n    [1] budget (int64)    [2] searches spent
 *     [3 .. 3+n)     adjacency masks of the graph
 *     then 2n masks base_out and 2n masks base_in, two words each,
 *
 * filled by splitflow_init from the first 3 + n words.  A residual network
 * is an array of 2n masks.  Node v is the in-node of vertex v and n + v its
 * out-node, as in the Python class.
 *
 * splitflow_min_cuts is kronkit.connectivity._SplitFlow.min_cuts in one
 * call, and returns the finished cut list.  It first checks that the graph
 * is connected, by one search over the 64-bit adjacency masks that is not
 * a residual search and is not charged, as the Python network checks it
 * before its first flow.  It then builds the pairs of
 * _even_pairs, runs their flows and reads the separators of the pairs that
 * attain the least flow, charging the same searches in the same order, and
 * writes each distinct cut once.  It then closes the cuts under the label
 * swaps, sorts them as Python sorts their id tuples, and writes each cut's
 * vertex ids and its witness, the lowest vertex whose neighbourhood equals
 * the cut; none of that searches or charges.  It keeps the residual network
 * of every attaining pair in one heap block of 2n masks per pair of the
 * family, allocated at the call and freed before it returns.
 *
 * Return codes: a count of cuts or flow units (>= 0); -1 at the first
 * search past the budget; and, from splitflow_min_cuts only, -2 when the
 * residual storage cannot be allocated and -3 when the graph is
 * disconnected, which it reports before any charged search.
 *
 * Build, with _canon.c and _residue.c into one library as kronkit._native
 * does:
 *     cc -O2 -shared -fPIC -o kernel.so _splitflow.c _canon.c _residue.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The word arrays come from ctypes, which aligns them to 8 bytes only. */
typedef unsigned __int128 mask_t __attribute__((aligned(8)));

#define HEADER 3
#define MAX_ORDER 64
#define MAX_NODES (2 * MAX_ORDER)
/* Even's family has at most order - 1 pairs through s and C(order - 1, 2)
 * pairs of neighbours of s. */
#define MAX_PAIRS ((MAX_ORDER - 1) * MAX_ORDER / 2)
#define OVER_BUDGET -1
#define NO_MEMORY -2
#define DISCONNECTED -3
#define BIT(i) ((mask_t)1 << (i))

static inline int low_bit(mask_t m)
{
    uint64_t lo = (uint64_t)m;
    return lo ? __builtin_ctzll(lo) : 64 + __builtin_ctzll((uint64_t)(m >> 64));
}

static inline mask_t *base_out(uint64_t *net)
{
    return (mask_t *)(net + HEADER + net[0]);
}

static inline mask_t *base_in(uint64_t *net)
{
    return base_out(net) + 2 * net[0];
}

/* Count one residual search; nonzero once the budget is exceeded. */
static inline int charge(uint64_t *net)
{
    net[2] += 1;
    return (int64_t)net[2] > (int64_t)net[1];
}

/* kronkit.graphs.reachable_mask over 128-bit masks. */
static mask_t reach(const mask_t *adj, mask_t within, int start)
{
    mask_t seen = BIT(start), frontier = seen;
    while (frontier) {
        mask_t acc = 0;
        for (mask_t m = frontier; m; m &= m - 1)
            acc |= adj[low_bit(m)];
        frontier = acc & within & ~seen;
        seen |= frontier;
    }
    return seen;
}

/* True when every vertex of the graph is reachable from vertex 0. */
static int connected(const uint64_t *net)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    uint64_t seen = 1, frontier = 1;
    while (frontier) {
        uint64_t acc = 0;
        for (; frontier; frontier &= frontier - 1)
            acc |= adj[__builtin_ctzll(frontier)];
        frontier = acc & ~seen;
        seen |= frontier;
    }
    return seen == (n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1);
}

void splitflow_init(uint64_t *net)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    mask_t *out = base_out(net), *in = base_in(net);
    for (int v = 0; v < n; v++) {
        out[v] = BIT(n + v);
        out[n + v] = adj[v];
        in[v] = (mask_t)adj[v] << n;
        in[n + v] = BIT(v);
    }
}

int splitflow_max_flow(uint64_t *net, int s, int t, int cutoff, mask_t *out)
{
    int n = (int)net[0];
    const mask_t *base = base_out(net);
    mask_t layers[MAX_NODES];
    for (int x = 0; x < 2 * n; x++)
        out[x] = base[x];
    int src = n + s, dst = t, flow = 0;
    mask_t common = base[src] & base[n + t];
    while (common && flow < cutoff) {
        int m = low_bit(common);
        out[t] |= BIT(n + m);
        out[n + m] |= BIT(m);
        out[m] = BIT(src); /* its vertex arc is used; s_out -> m can be undone */
        common &= common - 1;
        flow++;
    }
    while (flow < cutoff) {
        if (charge(net))
            return OVER_BUDGET;
        mask_t seen = BIT(src), frontier = seen;
        int depth = 0; /* each layer holds a new node, so at most 2n layers */
        while (frontier && !(seen >> dst & 1)) {
            layers[depth++] = frontier;
            mask_t acc = 0;
            for (; frontier; frontier &= frontier - 1)
                acc |= out[low_bit(frontier)];
            frontier = acc & ~seen;
            seen |= frontier;
        }
        if (!(seen >> dst & 1))
            break;
        int y = dst;
        while (depth--) {
            mask_t layer = layers[depth];
            int x = low_bit(layer);
            while (!(out[x] >> y & 1)) {
                layer &= layer - 1;
                x = low_bit(layer);
            }
            if (x - y == n || y - x == n) { /* a vertex arc, used or given back */
                out[x] ^= BIT(y);
                out[y] |= BIT(x);
            } else if (x >= n) { /* an edge arc: stays open, can now be undone */
                out[y] |= BIT(x);
            } else { /* undoes the flow on edge arc y -> x */
                out[x] ^= BIT(y);
            }
            y = x;
        }
        flow++;
    }
    return flow;
}

/* True when cuts[0 .. count) holds cut. */
static int listed(const uint64_t *cuts, int64_t count, uint64_t cut)
{
    for (int64_t i = 0; i < count; i++)
        if (cuts[i] == cut)
            return 1;
    return 0;
}

/* Appends the vertex mask of each minimum s-t separator that the buffer
 * does not hold yet at cuts[found], found being the masks counted so far,
 * and returns the new count, which goes on past capacity; -1 at the first
 * search past the budget.  A mask is compared only with those in the
 * buffer, so the count exceeds the distinct masks only once they do not
 * fit. */
static int64_t separators(uint64_t *net, int s, int t, const mask_t *out,
                          uint64_t *cuts, int64_t capacity, int64_t found)
{
    int n = (int)net[0];
    const mask_t *bout = base_out(net);
    mask_t nodes = 2 * n == MAX_NODES ? ~(mask_t)0 : BIT(2 * n) - 1;
    mask_t vertices = BIT(n) - 1;
    if (charge(net))
        return OVER_BUDGET;
    mask_t inside = reach(out, nodes, n + s) | BIT(s);
    if (inside >> t & 1)
        return found;
    mask_t flow_nodes = 0;
    for (int v = 0; v < n; v++)
        if (!(out[v] >> (n + v) & 1))
            flow_nodes |= BIT(v) | BIT(n + v);
    /* Only the flow nodes and the sink differ from the base network. */
    mask_t in[MAX_NODES];
    const mask_t *bin = base_in(net);
    for (int x = 0; x < 2 * n; x++)
        in[x] = bin[x];
    for (mask_t xs = flow_nodes | BIT(t); xs; xs &= xs - 1) {
        int x = low_bit(xs);
        for (mask_t ys = out[x] ^ bout[x]; ys; ys &= ys - 1)
            in[low_bit(ys)] ^= BIT(x);
    }
    if (charge(net))
        return OVER_BUDGET;
    mask_t outside = reach(in, nodes, t) | BIT(n + t);
    /* Each branch decides at least one flow node, so the stack holds at
     * most one entry per flow node plus one. */
    mask_t stack_in[MAX_NODES + 1], stack_out[MAX_NODES + 1];
    int top = 0;
    stack_in[top] = inside;
    stack_out[top++] = outside;
    while (top) {
        top--;
        inside = stack_in[top];
        outside = stack_out[top];
        mask_t undecided = flow_nodes & ~(inside | outside);
        if (!undecided) {
            uint64_t cut = (uint64_t)(inside & ~(inside >> n) & vertices);
            if (!listed(cuts, found < capacity ? found : capacity, cut)) {
                if (found < capacity)
                    cuts[found] = cut;
                found++;
            }
            continue;
        }
        int u = low_bit(undecided);
        if (charge(net))
            return OVER_BUDGET;
        stack_in[top] = inside | reach(out, nodes & ~inside, u);
        stack_out[top++] = outside;
        if (charge(net))
            return OVER_BUDGET;
        stack_in[top] = inside;
        stack_out[top++] = outside | reach(in, nodes & ~outside, u);
    }
    return found;
}

/* Writes the vertex mask of each minimum s-t separator to cuts[0 ..
 * capacity) and returns how many the search found, which may exceed
 * capacity: the caller then grows the buffer, restores the spent count and
 * calls again.  Returns -1 at the first search past the budget. */
int64_t splitflow_min_separators(uint64_t *net, int s, int t, const mask_t *out,
                                 uint64_t *cuts, int64_t capacity)
{
    return separators(net, s, t, out, cuts, capacity, 0);
}

/* The pairs of kronkit.connectivity._even_pairs, in the same order, as
 * x[i], y[i]; returns how many. */
static int even_pairs(const uint64_t *net, int labels,
                      unsigned char *x, unsigned char *y)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    int s = 0;
    for (int v = 1; v < n; v++)
        if (__builtin_popcountll(adj[v]) < __builtin_popcountll(adj[s]))
            s = v;
    int count = 0;
    if (s % labels <= 1)
        for (int t = 0; t < n; t++)
            if (t != s && !(adj[s] >> t & 1) && t % labels <= s % labels + 1) {
                x[count] = (unsigned char)s;
                y[count++] = (unsigned char)t;
            }
    for (uint64_t us = adj[s]; us; us &= us - 1) {
        int u = __builtin_ctzll(us);
        if (u % labels > 1)
            continue;
        for (uint64_t vs = us & (us - 1) & ~adj[u]; vs; vs &= vs - 1) {
            int v = __builtin_ctzll(vs);
            if (v % labels <= u % labels + 1) {
                x[count] = (unsigned char)u;
                y[count++] = (unsigned char)v;
            }
        }
    }
    return count;
}

/* Writes the vertex mask of every minimum cut that the kept pairs of Even's
 * family separate to cuts[0 .. capacity), each distinct cut once however
 * many pairs separate it, and returns how many there are; a complete
 * graph, which has no pairs, gets its n cuts that leave one vertex.  The
 * count exceeds capacity, and may then exceed the distinct cuts, only when
 * they do not fit.  Returns -1 at the first search past the budget and -2
 * when the residual storage cannot be allocated. */
static int64_t pair_cuts(uint64_t *net, int labels, uint64_t *cuts,
                         int64_t capacity)
{
    int n = (int)net[0];
    unsigned char x[MAX_PAIRS], y[MAX_PAIRS];
    int pairs = even_pairs(net, labels, x, y);
    if (!pairs) {
        uint64_t full = n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
        for (int v = 0; v < n && v < capacity; v++)
            cuts[v] = full ^ (uint64_t)1 << v;
        return n;
    }
    /* Slot i holds the residual network of the i-th attaining pair. */
    mask_t *kept = malloc((size_t)pairs * 2 * n * sizeof *kept);
    if (!kept)
        return NO_MEMORY;
    int attaining[MAX_PAIRS];
    int kappa = n - 1, count = 0;
    int64_t found = 0;
    for (int i = 0; i < pairs; i++) {
        mask_t *out = kept + (size_t)count * 2 * n;
        int value = splitflow_max_flow(net, x[i], y[i], kappa, out);
        if (value < 0) {
            found = OVER_BUDGET;
            goto done;
        }
        if (value < kappa) {
            kappa = value;
            if (count)
                memcpy(kept, out, 2 * n * sizeof *kept);
            count = 0;
        }
        /* A flow stopped at the cutoff may hide a larger local
         * connectivity; its pair separates no minimum cut. */
        attaining[count++] = i;
    }
    for (int j = 0; j < count && found >= 0; j++)
        found = separators(net, x[attaining[j]], y[attaining[j]],
                           kept + (size_t)j * 2 * n, cuts, capacity, found);
done:
    free(kept);
    return found;
}

/* Appends to the found cuts in cuts[0 .. capacity) their images under the
 * swaps of labels a and a + 1, 1 <= a <= labels - 2, and the images of
 * those, until the set is closed, and returns the new count.  Like
 * separators, it appends only masks that the buffer does not hold yet, and
 * keeps counting past capacity, so the count exceeds the closed set only
 * once the buffer is full. */
static int64_t close_under_swaps(int n, int labels, uint64_t *cuts,
                                 int64_t capacity, int64_t found)
{
    uint64_t column = 0; /* the ids of label 0 */
    for (int v = 0; v < n; v += labels)
        column |= (uint64_t)1 << v;
    for (int64_t i = 0; i < found && i < capacity; i++)
        for (int a = 1; a <= labels - 2; a++) {
            uint64_t low = column << a, high = column << (a + 1);
            uint64_t mask = cuts[i];
            uint64_t image = (mask & ~(low | high)) | (mask & low) << 1
                             | (mask & high) >> 1;
            if (!listed(cuts, found < capacity ? found : capacity, image)) {
                if (found < capacity)
                    cuts[found] = image;
                found++;
            }
        }
    return found;
}

/* The order of sorted id tuples on cut masks of one size: the mask that
 * holds the lowest id of either but not both comes first. */
static int lexicographic(const void *pa, const void *pb)
{
    uint64_t a = *(const uint64_t *)pa, b = *(const uint64_t *)pb;
    uint64_t differ = a ^ b;
    if (!differ)
        return 0;
    return (a & differ & -differ) ? -1 : 1;
}

/* kronkit.connectivity._SplitFlow.min_cuts in one call: every minimum cut
 * of the graph, closed under the label swaps, in lexicographic order of
 * their sorted ids.  It reads the cuts of the kept pairs (pair_cuts),
 * closes them under the swaps that generate the relabellings fixing the
 * family's source (close_under_swaps), which search nothing, and sorts the
 * closed masks in cuts[0 .. count).  For cut i it writes the ids of its
 * vertices, in increasing order, to ids[i * kappa .. (i + 1) * kappa), so
 * ids must hold capacity * n bytes, and to witness[i] the lowest vertex v
 * whose neighbourhood adj[v] equals the cut, or -1 when there is none.
 * Returns the count of cuts; a count above capacity asks the caller to grow
 * the buffers to at least that count, restore the spent count and call
 * again, as for splitflow_min_separators, until the count fits: a closure
 * that filled the buffer counts only the images of the cuts it holds, so
 * its count may fall short of the closed set.  Returns -3, before any
 * search, when the graph is disconnected, -1 at the first search past the
 * budget and -2 when the residual storage cannot be allocated. */
int64_t splitflow_min_cuts(uint64_t *net, int labels, uint64_t *cuts,
                           int64_t capacity, unsigned char *ids,
                           signed char *witness)
{
    int n = (int)net[0];
    const uint64_t *adj = net + HEADER;
    if (!connected(net))
        return DISCONNECTED;
    int64_t found = pair_cuts(net, labels, cuts, capacity);
    if (found < 0 || found > capacity)
        return found;
    found = close_under_swaps(n, labels, cuts, capacity, found);
    if (found > capacity)
        return found;
    qsort(cuts, (size_t)found, sizeof *cuts, lexicographic);
    for (int64_t i = 0; i < found; i++) {
        witness[i] = -1;
        for (int v = 0; v < n; v++)
            if (adj[v] == cuts[i]) {
                witness[i] = (signed char)v;
                break;
            }
        for (uint64_t m = cuts[i]; m; m &= m - 1)
            *ids++ = (unsigned char)__builtin_ctzll(m);
    }
    return found;
}
