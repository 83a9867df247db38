package attr

import (
	"encoding/binary"
	"fmt"
	"math"

	"krcore/internal/binenc"
)

// The attribute stores serialise in canonical compact form: per-vertex
// lengths first, then the attribute data flattened in vertex order.
// A store that accumulated backing-slice holes through SetVertex slot
// reuse re-encodes without them, and a decoded store is always
// compact, so decode-then-encode is byte-identical — the snapshot
// golden tests depend on exactly that. The keyword stores' dense ids
// are not written: decoding numbers the keys afresh.

// AppendBinary serialises the geo store.
func (s *Geo) AppendBinary(b *binenc.Buffer) {
	b.U64(uint64(len(s.pts)))
	for _, p := range s.pts {
		b.F64(p.X)
		b.F64(p.Y)
	}
}

// DecodeGeo reconstructs a geo store written by AppendBinary.
func DecodeGeo(r *binenc.Reader) (*Geo, error) {
	n := r.Count(16)
	raw := r.Raw(16 * n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("geo store: %w", err)
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
		}
	}
	return &Geo{pts: pts}, nil
}

// AppendBinary serialises the keyword store in compact CSR form.
func (s *Keywords) AppendBinary(b *binenc.Buffer) {
	b.U64(uint64(len(s.spans)))
	for _, sp := range s.spans {
		b.U32(uint32(sp.n))
	}
	for _, sp := range s.spans {
		for _, k := range s.keys[sp.off : sp.off+sp.n] {
			b.U32(uint32(k))
		}
	}
}

// decodeSpans reads the per-vertex lengths and flattened values shared
// by both keyword stores, validating each vertex's keys strictly
// ascending (the sorted-and-deduplicated store invariant).
func decodeSpans(r *binenc.Reader) (spans []span, keys []int32, err error) {
	n := r.Count(4)
	rawLens := r.Raw(4 * n)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	spans = make([]span, n)
	total := 0
	for i := range spans {
		c := binary.LittleEndian.Uint32(rawLens[4*i:])
		spans[i] = span{off: int32(total), n: int32(c)}
		total += int(c)
		// Checked inside the loop so a corrupt section cannot drive the
		// running total into overflow before a single post-loop check.
		if total > r.Remaining()/4 {
			return nil, nil, fmt.Errorf("claims %d+ keys, only %d bytes left", total, r.Remaining())
		}
	}
	raw := r.Raw(4 * total)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	keys = make([]int32, total)
	for i := range keys {
		keys[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	for u, sp := range spans {
		list := keys[sp.off : sp.off+sp.n]
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				return nil, nil, fmt.Errorf("vertex %d: keys not strictly ascending", u)
			}
		}
	}
	return spans, keys, nil
}

// DecodeKeywords reconstructs a keyword store written by AppendBinary.
func DecodeKeywords(r *binenc.Reader) (*Keywords, error) {
	spans, keys, err := decodeSpans(r)
	if err != nil {
		return nil, fmt.Errorf("keyword store: %w", err)
	}
	ids, d := denseIDs(keys)
	return &Keywords{keys: keys, ids: ids, spans: spans, dict: d}, nil
}

// AppendBinary serialises the weighted keyword store in compact CSR
// form: lengths, flattened keys, then flattened weights.
func (s *Weighted) AppendBinary(b *binenc.Buffer) {
	b.U64(uint64(len(s.spans)))
	for _, sp := range s.spans {
		b.U32(uint32(sp.n))
	}
	for _, sp := range s.spans {
		for _, k := range s.keys[sp.off : sp.off+sp.n] {
			b.U32(uint32(k))
		}
	}
	for _, sp := range s.spans {
		for _, w := range s.weights[sp.off : sp.off+sp.n] {
			b.F64(w)
		}
	}
}

// DecodeWeighted reconstructs a weighted keyword store written by
// AppendBinary, additionally validating that every weight is finite
// and non-negative (the store invariant the metrics assume).
func DecodeWeighted(r *binenc.Reader) (*Weighted, error) {
	spans, keys, err := decodeSpans(r)
	if err != nil {
		return nil, fmt.Errorf("weighted store: %w", err)
	}
	raw := r.Raw(8 * len(keys))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("weighted store: %w", err)
	}
	weights := make([]float64, len(keys))
	for i := range weights {
		weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("weighted store: weight %d is %g, want finite and non-negative", i, w)
		}
	}
	ids, d := denseIDs(keys)
	s := &Weighted{keys: keys, ids: ids, weights: weights, spans: spans, totals: make([]float64, len(spans)), dict: d}
	for u := range spans {
		s.totals[u] = sumWeights(s.Weights(int32(u)))
	}
	return s, nil
}
