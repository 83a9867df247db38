// Package color implements greedy graph colouring for the colour-based
// maximum-clique size upper bound of Section 6.2 (following Yuan et al.,
// reference [31]): a k-clique needs k colours, so the number of colours
// used by any proper colouring upper-bounds the maximum clique size.
//
// The bound is evaluated on the similarity graph J'. Because the engine
// stores the complement (dissimilarity rows), ColorsComplement colours
// the complement graph directly without materialising J'.
package color

import (
	"math/bits"

	"krcore/internal/bitset"
)

// Scratch holds ColorsComplement's working arrays. A caller that keeps
// one across calls, as a search state does, colours without allocating
// once the arrays have grown to its largest input. The zero value is
// ready to use; a Scratch must not be shared by concurrent calls.
type Scratch struct {
	all, key, order, bin   []int32
	color                  []int32  // colour+1 of each coloured vertex, 0 otherwise
	colored                []uint64 // the coloured vertices, dense
	colorCount, dissimWith []int32
}

// ColorsComplement greedily colours the complement of the graph given by
// dissimilarity rows (sparse bitsets, see bitset.Entry): vertices i and
// j are adjacent iff j is NOT in dissim[i]. Vertices with the fewest
// dissimilar partners (highest similarity degree) are coloured first,
// ties in the order active lists them: a counting sort on the rows'
// popcounts, stable, so an ascending active gives the (count, id)
// order. A vertex's row is read against a dense mask of the coloured
// vertices, so only its coloured partners are visited. Runs in
// O(n + colors·|active| + Σ|dissim|) without materialising the dense
// complement.
//
// active selects the participating local vertices; nil means all of
// 0..len(dissim)-1, in that order. The count stops once it passes
// limit, returning limit+1, which decides "more than limit colours"
// without colouring the rest; a limit of at least the number of active
// vertices gives the whole count. sc holds the working arrays.
func ColorsComplement(dissim [][]bitset.Entry, active []int32, limit int, sc *Scratch) int {
	n := len(dissim)
	if active == nil {
		sc.all = sc.all[:0]
		for v := range n {
			sc.all = append(sc.all, int32(v))
		}
		active = sc.all
	}
	// Highest similarity degree first = fewest dissimilar first.
	key := zeroed(sc.key, len(active))
	sc.key = key
	maxKey := int32(0)
	for i, v := range active {
		c := 0
		for _, e := range dissim[v] {
			c += bits.OnesCount64(e.W)
		}
		key[i] = int32(c)
		maxKey = max(maxKey, key[i])
	}
	sc.bin = zeroed(sc.bin, int(maxKey)+1)
	for _, d := range key {
		sc.bin[d]++
	}
	start := int32(0)
	for d, c := range sc.bin {
		sc.bin[d] = start // first index of key d
		start += c
	}
	sc.order = zeroed(sc.order, len(active))
	for i, v := range active {
		d := key[i]
		sc.order[sc.bin[d]] = v
		sc.bin[d]++
	}

	color := zeroed(sc.color, n)
	sc.color = color
	colored := zeroed(sc.colored, (n+63)/64)
	sc.colored = colored
	// colorCount[c] = number of coloured vertices with colour c.
	// dissimWith[c] is scratch: among u's dissimilar coloured vertices,
	// how many have colour c. No more colours than vertices are used.
	colorCount := zeroed(sc.colorCount, len(active))
	dissimWith := zeroed(sc.dissimWith, len(active))
	sc.colorCount, sc.dissimWith = colorCount, dissimWith
	maxColor := 0
	for _, u := range sc.order {
		clear(dissimWith[:maxColor])
		for _, e := range dissim[u] {
			for x := e.W & colored[e.I]; x != 0; x &= x - 1 {
				dissimWith[color[e.I<<6|int32(bits.TrailingZeros64(x))]-1]++
			}
		}
		// Colour c is blocked iff some coloured vertex with colour c is
		// similar to u, i.e. colorCount[c] > dissimWith[c].
		c := 0
		for c < maxColor && colorCount[c] > dissimWith[c] {
			c++
		}
		color[u] = int32(c + 1)
		colored[u>>6] |= 1 << (u & 63)
		if c == maxColor {
			if maxColor++; maxColor > limit {
				return maxColor
			}
		}
		colorCount[c]++
	}
	return maxColor
}

// zeroed returns buf re-sliced to n zeroed elements, reusing its
// backing array when it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
