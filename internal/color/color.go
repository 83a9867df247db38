// Package color implements greedy graph colouring for the colour-based
// maximum-clique size upper bound of Section 6.2 (following Yuan et al.,
// reference [31]): a k-clique needs k colours, so the number of colours
// used by any proper colouring upper-bounds the maximum clique size.
//
// The bound is evaluated on the similarity graph J'. Because the engine
// stores the complement (dissimilarity lists), ColorsComplement colours
// the complement graph directly without materialising J'.
package color

// Scratch holds ColorsComplement's working arrays. A caller that keeps
// one across calls, as a search state does, colours without allocating
// once the arrays have grown to its largest input. The zero value is
// ready to use; a Scratch must not be shared by concurrent calls.
type Scratch struct {
	all, order, bin        []int32
	color                  []int32 // colour+1 of each coloured vertex, 0 otherwise
	colorCount, dissimWith []int32
}

// ColorsComplement greedily colours the complement of the graph given by
// dissimilarity lists: vertices i and j are adjacent iff j is NOT in
// dissim[i]. Vertices with the fewest dissimilar partners (highest
// similarity degree) are coloured first, ties in the order active lists
// them: a counting sort on |dissim(v)|, stable, so an ascending active
// gives the (count, id) order. Runs in O(n + colors·|active| +
// Σ|dissim|) without materialising the dense complement.
//
// active selects the participating local vertices; nil means all of
// 0..len(dissim)-1, in that order. The count stops once it passes
// limit, returning limit+1, which decides "more than limit colours"
// without colouring the rest; a limit of at least the number of active
// vertices gives the whole count. sc holds the working arrays.
func ColorsComplement(dissim [][]int32, active []int32, limit int, sc *Scratch) int {
	n := len(dissim)
	if active == nil {
		sc.all = sc.all[:0]
		for v := range n {
			sc.all = append(sc.all, int32(v))
		}
		active = sc.all
	}
	// Highest similarity degree first = fewest dissimilar first.
	maxKey := 0
	for _, v := range active {
		maxKey = max(maxKey, len(dissim[v]))
	}
	sc.bin = zeroed(sc.bin, maxKey+1)
	for _, v := range active {
		sc.bin[len(dissim[v])]++
	}
	start := int32(0)
	for d, c := range sc.bin {
		sc.bin[d] = start // first index of key d
		start += c
	}
	sc.order = zeroed(sc.order, len(active))
	for _, v := range active {
		d := len(dissim[v])
		sc.order[sc.bin[d]] = v
		sc.bin[d]++
	}

	color := zeroed(sc.color, n)
	sc.color = color
	// colorCount[c] = number of coloured vertices with colour c.
	// dissimWith[c] is scratch: among u's dissimilar coloured vertices,
	// how many have colour c. No more colours than vertices are used.
	colorCount := zeroed(sc.colorCount, len(active))
	dissimWith := zeroed(sc.dissimWith, len(active))
	sc.colorCount, sc.dissimWith = colorCount, dissimWith
	maxColor := 0
	for _, u := range sc.order {
		clear(dissimWith[:maxColor])
		for _, v := range dissim[u] {
			if c := color[v]; c > 0 {
				dissimWith[c-1]++
			}
		}
		// Colour c is blocked iff some coloured vertex with colour c is
		// similar to u, i.e. colorCount[c] > dissimWith[c].
		c := 0
		for c < maxColor && colorCount[c] > dissimWith[c] {
			c++
		}
		color[u] = int32(c + 1)
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
func zeroed(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
