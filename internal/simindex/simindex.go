// Package simindex provides bulk similar-pair engines behind the
// similarity.BulkSource interface: given a vertex set, an engine
// materialises the whole thresholded similarity structure at once
// instead of answering one Oracle.Similar call per pair.
//
// Three indexes cover the paper's metrics:
//
//   - Grid: a uniform spatial grid for the Euclidean metric. Cells are
//     r×r squares, so every pair within distance r lies in the same or
//     an adjacent cell; preprocessing drops from O(n²) distance checks
//     to near-linear for realistic thresholds.
//   - Inverted / WeightedInverted: an inverted keyword index with
//     prefix-filter and size-ratio upper bounds for the Jaccard and
//     weighted-Jaccard metrics; candidate pairs must share an indexed
//     keyword, and pairs whose cheap upper bound already fails r are
//     pruned before the exact intersection.
//   - Brute: a parallel brute-force fallback for arbitrary metrics that
//     shards the pair matrix across GOMAXPROCS workers.
//
// Serial is the non-indexed reference implementation used by the
// equivalence tests and benchmarks. Every engine agrees bit-for-bit
// with the serial per-pair oracle path: identical similarity graphs,
// identical dissimilarity lists, and therefore identical (k,r)-cores.
//
// The joins pay off for callers that pass whole vertex sets and want
// the similar pairs among them (krcore.BuildIndex, Clique+,
// BruteForce). A caller that needs only a yes or no per pair of a set
// it scans itself — a component's dissimilarity lists, where nearly
// every pair is a join candidate anyway, or the dissimilar-edge
// filter — takes the engine's exact pair test instead (NewPairTest,
// pairtest.go): a comparison with r² for the grid, a gather over a
// dense row of the probing vertex's keys for the keyword indexes.
package simindex

import (
	"runtime"
	"sync"

	"krcore/internal/similarity"
)

// For returns the bulk engine attached to the oracle, building and
// attaching the best index for its metric on first use. Searches call
// this from their preprocessing stage, so a pre-attached index (see
// krcore.BuildIndex) is reused across many (k,r) queries.
func For(o *similarity.Oracle) similarity.BulkSource {
	if b := o.Bulk(); b != nil {
		return b
	}
	b := New(o)
	o.SetBulk(b)
	return b
}

// New builds the best bulk engine for the oracle's metric: a spatial
// grid for Euclidean, an inverted keyword index for (weighted) Jaccard,
// and the parallel brute-force fallback for any other metric. The
// index snapshots per-vertex statistics of the attribute store, so
// build it after the store is final.
func New(o *similarity.Oracle) similarity.BulkSource {
	switch m := o.Metric().(type) {
	case similarity.Euclidean:
		return NewGrid(m.Store, o.Threshold())
	case similarity.Jaccard:
		return NewInverted(m.Store, o.Threshold())
	case similarity.WeightedJaccard:
		return NewWeightedInverted(m.Store, o.Threshold())
	default:
		return NewBrute(o)
	}
}

// boundSlack is the relative safety margin applied to the prefix-filter
// and weight-ratio upper bounds. The bounds are exact in real
// arithmetic, but the oracle compares floating-point scores against r;
// the slack keeps a bound from pruning a pair whose accumulated float
// score lands on the similar side of r by a few ulps. It is many
// orders of magnitude above accumulation error for realistic attribute
// sizes and costs only a handful of extra candidate verifications.
const boundSlack = 1e-9

// workers caps construction parallelism by the available cores and the
// number of work items.
func workers(items int) int {
	w := runtime.GOMAXPROCS(0)
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runParallel runs fn(w) for w in [0,nw) on nw goroutines (inline when
// nw <= 1) and waits for completion.
func runParallel(nw int, fn func(w int)) {
	if nw <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// mergeRows symmetrises one-sided similar-pair rows into full adjacency
// lists. rows[i] must be sorted ascending and strictly one-sided —
// either every entry < i (backward rows) or every entry > i (forward
// rows), consistently across all rows. The result shares one backing
// slice (CSR layout) and every list is sorted ascending, so the output
// is deterministic however the rows were computed.
func mergeRows(n int, rows [][]int32) [][]int32 {
	deg := make([]int32, n)
	total := 0
	for i := 0; i < n; i++ {
		deg[i] += int32(len(rows[i]))
		total += 2 * len(rows[i])
		for _, j := range rows[i] {
			deg[j]++
		}
	}
	backing := make([]int32, total)
	adj := make([][]int32, n)
	off := 0
	for i := 0; i < n; i++ {
		adj[i] = backing[off : off : off+int(deg[i])]
		off += int(deg[i])
	}
	// Single ascending pass: copying row[i] and then pushing i into the
	// row entries' lists keeps every list sorted for both row
	// directions (backward copies land before later forward pushes;
	// forward copies land after the earlier backward pushes).
	for i := 0; i < n; i++ {
		adj[i] = append(adj[i], rows[i]...)
		for _, j := range rows[i] {
			adj[j] = append(adj[j], int32(i))
		}
	}
	return adj
}

// bruteAdjacency computes similar adjacency by sharding the strict
// upper triangle of the pair matrix across workers: row i (all j > i)
// is owned by exactly one worker, so rows need no locking and the
// result is deterministic.
func bruteAdjacency(n int, pred func(i, j int32) bool) [][]int32 {
	rows := make([][]int32, n)
	nw := 1
	if n >= 96 {
		nw = workers(n)
	}
	runParallel(nw, func(w int) {
		// Striding interleaves long (small i) and short (large i) rows
		// across workers, balancing the triangle.
		for i := w; i < n; i += nw {
			var row []int32
			for j := i + 1; j < n; j++ {
				if pred(int32(i), int32(j)) {
					row = append(row, int32(j))
				}
			}
			rows[i] = row
		}
	})
	return mergeRows(n, rows)
}

// completeAdjacency is the all-similar case (threshold r <= 0 on a
// similarity metric): every pair of distinct vertices is similar.
func completeAdjacency(n int) [][]int32 {
	backing := make([]int32, n*(n-1))
	adj := make([][]int32, n)
	off := 0
	for i := 0; i < n; i++ {
		row := backing[off : off+n-1]
		off += n - 1
		w := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			row[w] = int32(j)
			w++
		}
		adj[i] = row
	}
	return adj
}
