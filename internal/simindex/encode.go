package simindex

import (
	"fmt"
	"math"

	"krcore/internal/binenc"
	"krcore/internal/similarity"
)

// Index tags of the snapshot encoding. The tag pins the index type a
// threshold was built with, so a snapshot decoded on a metric whose
// best index differs (a format mismatch, never a legal state) fails
// loudly instead of misbehaving.
const (
	tagGrid             uint8 = 1
	tagInverted         uint8 = 2
	tagWeightedInverted uint8 = 3
)

// Grid flag bits.
const (
	gridExact uint8 = 1 << iota
	gridNever
	gridBrute
)

// AppendIndex serialises the derived per-vertex arrays of a bulk
// similarity index: the grid's cells, and the inverted indexes' prefix
// lengths and the weighted one's totals, which it computes from the
// store (those indexes keep neither). Only the three built-in indexes
// serialise; Brute and Serial carry no state worth saving and
// snapshots reject their (custom-metric) oracles earlier anyway.
func AppendIndex(b *binenc.Buffer, src similarity.BulkSource) error {
	switch ix := src.(type) {
	case *Grid:
		b.U8(tagGrid)
		var flags uint8
		if ix.exact {
			flags |= gridExact
		}
		if ix.never {
			flags |= gridNever
		}
		if ix.brute {
			flags |= gridBrute
		}
		b.U8(flags)
		b.I64s(ix.cx)
		b.I64s(ix.cy)
	case *Inverted:
		b.U8(tagInverted)
		var prefix []int32
		if ix.r > 0 {
			prefix = ix.prefixes(allVertices(ix.store.N()))
		}
		b.I32s(prefix)
	case *WeightedInverted:
		b.U8(tagWeightedInverted)
		var totals []float64
		var prefix []int32
		if ix.r > 0 {
			totals = make([]float64, ix.store.N())
			for u := range totals {
				totals[u] = ix.store.Total(int32(u))
			}
			prefix = ix.prefixes(allVertices(ix.store.N()))
		}
		b.F64s(totals)
		b.I32s(prefix)
	default:
		return fmt.Errorf("simindex: cannot serialise index %T", src)
	}
	return nil
}

// DecodeIndex reconstructs the bulk index of the oracle's metric from
// arrays written by AppendIndex, without rescanning the attribute
// store. The caller attaches the result via Oracle.SetBulk. The
// decoded index is validated against the oracle: tag matching the
// metric, array lengths matching the store, flags matching the
// threshold — so it behaves bit-identically to a freshly built one.
// The inverted indexes' arrays are validated and dropped: the indexes
// derive them from the store.
func DecodeIndex(r *binenc.Reader, o *similarity.Oracle) (similarity.BulkSource, error) {
	tag := r.U8()
	thr := o.Threshold()
	switch m := o.Metric().(type) {
	case similarity.Euclidean:
		if tag != tagGrid {
			return nil, fmt.Errorf("simindex: index tag %d for Euclidean metric, want grid", tag)
		}
		flags := r.U8()
		g := &Grid{
			store: m.Store,
			r2:    thr * thr,
			w:     math.Abs(thr) * 1.001,
			exact: flags&gridExact != 0,
			never: flags&gridNever != 0,
			brute: flags&gridBrute != 0,
		}
		g.cx = r.I64s()
		g.cy = r.I64s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("simindex: grid: %w", err)
		}
		if flags&^(gridExact|gridNever|gridBrute) != 0 {
			return nil, fmt.Errorf("simindex: grid: unknown flags %#x", flags)
		}
		if g.exact != (g.w == 0) || g.never != math.IsNaN(thr) {
			return nil, fmt.Errorf("simindex: grid flags %#x inconsistent with threshold %g", flags, thr)
		}
		if g.exact || g.never || g.brute {
			if g.cx != nil || g.cy != nil {
				return nil, fmt.Errorf("simindex: degenerate grid carries cell arrays")
			}
		} else if len(g.cx) != m.Store.N() || len(g.cy) != m.Store.N() {
			return nil, fmt.Errorf("simindex: grid cells for %d/%d vertices, store has %d",
				len(g.cx), len(g.cy), m.Store.N())
		}
		return g, nil
	case similarity.Jaccard:
		if tag != tagInverted {
			return nil, fmt.Errorf("simindex: index tag %d for Jaccard metric, want inverted", tag)
		}
		prefix := r.I32s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("simindex: inverted: %w", err)
		}
		if err := checkPrefix(prefix, thr, m.Store.N(), m.Store.Len); err != nil {
			return nil, fmt.Errorf("simindex: inverted: %w", err)
		}
		return NewInverted(m.Store, thr), nil
	case similarity.WeightedJaccard:
		if tag != tagWeightedInverted {
			return nil, fmt.Errorf("simindex: index tag %d for weighted-Jaccard metric, want weighted inverted", tag)
		}
		totals, prefix := r.F64s(), r.I32s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("simindex: weighted inverted: %w", err)
		}
		if err := checkPrefix(prefix, thr, m.Store.N(), m.Store.Len); err != nil {
			return nil, fmt.Errorf("simindex: weighted inverted: %w", err)
		}
		if thr > 0 && len(totals) != m.Store.N() {
			return nil, fmt.Errorf("simindex: weighted inverted: totals for %d vertices, store has %d",
				len(totals), m.Store.N())
		}
		if thr <= 0 && totals != nil {
			return nil, fmt.Errorf("simindex: weighted inverted: totals present at threshold %g", thr)
		}
		return NewWeightedInverted(m.Store, thr), nil
	default:
		return nil, fmt.Errorf("simindex: cannot decode index for metric %T", o.Metric())
	}
}

// checkPrefix validates a decoded prefix array against the threshold
// convention of the inverted indexes: present (one entry per vertex,
// within the vertex's key count) for r > 0, absent otherwise.
func checkPrefix(prefix []int32, thr float64, n int, lenOf func(int32) int) error {
	if thr > 0 {
		if len(prefix) != n {
			return fmt.Errorf("prefix lengths for %d vertices, store has %d", len(prefix), n)
		}
		for i, p := range prefix {
			if p < 0 || int(p) > lenOf(int32(i)) {
				return fmt.Errorf("vertex %d: prefix length %d outside [0,%d]", i, p, lenOf(int32(i)))
			}
		}
		return nil
	}
	if prefix != nil {
		return fmt.Errorf("prefix lengths present at threshold %g", thr)
	}
	return nil
}

// allVertices returns 0..n-1.
func allVertices(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}
