package simindex

import "krcore/internal/similarity"

// Brute is the bulk fallback for arbitrary metrics: no index structure,
// but the pair matrix is sharded across GOMAXPROCS workers, so custom
// Metric implementations still get parallel bulk preprocessing.
type Brute struct {
	o *similarity.Oracle
}

// NewBrute wraps the oracle in a parallel brute-force bulk engine.
func NewBrute(o *similarity.Oracle) *Brute { return &Brute{o: o} }

// SimilarAdjacency implements similarity.BulkSource; the hint is
// ignored.
func (b *Brute) SimilarAdjacency(vertices []int32, _ [][]int32) [][]int32 {
	return bruteAdjacency(len(vertices), func(i, j int32) bool {
		return b.o.Similar(vertices[i], vertices[j])
	})
}

// Serial is the non-indexed reference engine: one Oracle.Similar call
// per pair, single-threaded — exactly the preprocessing the indexes
// replace. Equivalence tests and benchmarks attach it via
// Oracle.SetBulk to reproduce the serial path.
type Serial struct {
	o *similarity.Oracle
}

// NewSerial wraps the oracle in the serial reference engine.
func NewSerial(o *similarity.Oracle) *Serial { return &Serial{o: o} }

// SimilarAdjacency implements similarity.BulkSource; the hint is
// ignored, so the reference scores every pair.
func (s *Serial) SimilarAdjacency(vertices []int32, _ [][]int32) [][]int32 {
	n := len(vertices)
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.o.Similar(vertices[i], vertices[j]) {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	return adj
}
