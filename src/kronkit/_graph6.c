/* The edge payload of a graph6 string, read into adjacency masks for
 * kronkit.graphs.parse_graph6, which checks the string first: its
 * alphabet, its size field, the payload's length and its padding bits.
 *
 * The payload lists the upper triangle of the adjacency matrix column by
 * column, (0, 1), (0, 2), (1, 2), (0, 3), ..., six bits to a character,
 * each character 63 plus its bits, most significant bit first.  A vertex's
 * mask takes width words, lowest bits first.
 *
 * Build with the other kernel sources into one library, as kronkit._native
 * does: it lists the sources and the flags.
 */

#include <stddef.h>
#include <stdint.h>

/* Sets in adj[v * width .. (v + 1) * width), which the caller zeroed, the
 * neighbours of each vertex v of the graph of the given order whose payload
 * is body. */
void graph6_adjacency(const unsigned char *body, int order, int width, uint64_t *adj)
{
    int bit = 5;
    for (int j = 1; j < order; j++)
        for (int i = 0; i < j; i++) {
            if (bit < 0) {
                bit = 5;
                body++;
            }
            if ((*body - 63) >> bit-- & 1) {
                adj[(size_t)i * width + j / 64] |= (uint64_t)1 << j % 64;
                adj[(size_t)j * width + i / 64] |= (uint64_t)1 << i % 64;
            }
        }
}

