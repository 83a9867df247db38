// Package color implements greedy graph colouring for the colour-based
// maximum-clique size upper bound of Section 6.2 (following Yuan et al.,
// reference [31]): a k-clique needs k colours, so the number of colours
// used by any proper colouring upper-bounds the maximum clique size.
//
// The bound is evaluated on the similarity graph J'. Because the engine
// stores the complement (dissimilarity lists), ColorsComplement colours
// the complement graph directly without materialising J'.
package color

import "sort"

// ColorsComplement greedily colours the complement of the graph given by
// dissimilarity lists: vertices i and j are adjacent iff j is NOT in
// dissim[i]. Vertices with the fewest dissimilar partners (highest
// similarity degree) are coloured first. Runs in O(n·colors + Σ|dissim|)
// without materialising the dense complement.
//
// active selects the participating local vertices; nil means all of
// 0..len(dissim)-1. The count stops once it passes limit, returning
// limit+1, which decides "more than limit colours" without colouring
// the rest; a limit of at least the number of active vertices gives
// the whole count.
func ColorsComplement(dissim [][]int32, active []int32, limit int) int {
	n := len(dissim)
	var order []int32
	if active == nil {
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
	} else {
		order = append([]int32(nil), active...)
	}
	inSet := make([]bool, n)
	for _, u := range order {
		inSet[u] = true
	}
	// Highest similarity degree first = fewest dissimilar first.
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(dissim[order[i]]), len(dissim[order[j]])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})

	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	// colorCount[c] = number of coloured vertices with colour c.
	var colorCount []int
	// dissimWith[c] is scratch: among u's dissimilar coloured vertices,
	// how many have colour c.
	var dissimWith []int
	maxColor := 0
	for _, u := range order {
		for len(dissimWith) < maxColor {
			dissimWith = append(dissimWith, 0)
		}
		for i := range dissimWith {
			dissimWith[i] = 0
		}
		for _, v := range dissim[u] {
			if inSet[v] && color[v] >= 0 {
				dissimWith[color[v]]++
			}
		}
		// Colour c is blocked iff some coloured vertex with colour c is
		// similar to u, i.e. colorCount[c] > dissimWith[c].
		c := 0
		for c < maxColor && colorCount[c] > dissimWith[c] {
			c++
		}
		color[u] = c
		if c == maxColor {
			if maxColor++; maxColor > limit {
				return maxColor
			}
			colorCount = append(colorCount, 0)
		}
		colorCount[c]++
	}
	return maxColor
}
