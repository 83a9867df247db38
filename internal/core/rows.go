package core

import (
	"math/bits"

	"krcore/internal/bitset"
)

// Bitset rows of a component. Every problem holds one adjacency row and
// one dissimilarity row per vertex, sparse bitsets over the component's
// n vertices (bitset.Entry), written once when the component is
// prepared (builder.build, restructureProblem, DecodePrepared) and read
// by every search of it. A row is stored as its nonzero words with
// their word indexes, so ANDing it with a dense mask visits only those
// words: no more word operations than a walk of the vertex's list,
// whether the component is narrow and dense or wide and sparse. A
// search state adds dense masks of M, C, E and M∪C, ⌈n/64⌉ words each,
// that transition keeps current. The state's per-vertex counters are
// ANDs and popcounts of rows against masks (state.go), and so are the
// Δ1/Δ2 simulation (simulateBranch), the (k,k')-core bound
// (simPeelBound) and the connectivity search (reach). A row never has
// more entries than its vertex has partners.
//
// A row's entries ascend by word index and its bits ascend within a
// word, so a walk over a row visits its members in ascending order.

// rowWords is the width of a dense bitset over n vertices.
func rowWords(n int) int { return (n + 63) / 64 }

// adjOf returns v's adjacency row.
func (p *problem) adjOf(v int32) []bitset.Entry { return p.rows[v] }

// adjOf and disOf return v's adjacency and dissimilarity rows.
func (s *state) adjOf(v int32) []bitset.Entry { return s.rows[v] }

func (s *state) disOf(v int32) []bitset.Entry { return s.rows[s.p.n+int(v)] }

// rowWriter collects rows in reusable scratch, one open row at a time,
// and copies them into one buffer of their exact size.
type rowWriter struct {
	ents  []bitset.Entry
	ends  []int32 // end of each closed row in ents
	start int     // start of the open row
}

func (w *rowWriter) reset() { w.ents, w.ends, w.start = w.ents[:0], w.ends[:0], 0 }

// bit adds v, above every member of the open row, to it.
func (w *rowWriter) bit(v int32) {
	i, b := v>>6, uint64(1)<<(v&63)
	if last := len(w.ents) - 1; last >= w.start && w.ents[last].I == i {
		w.ents[last].W |= b
		return
	}
	w.ents = append(w.ents, bitset.Entry{W: b, I: i})
}

// list adds the ascending list, above every member of the open row, to
// it.
func (w *rowWriter) list(l []int32) {
	for _, v := range l {
		w.bit(v)
	}
}

// end closes the open row.
func (w *rowWriter) end() {
	w.ends = append(w.ends, int32(len(w.ents)))
	w.start = len(w.ents)
}

// row returns closed row r, a view of the scratch valid until the next
// reset.
func (w *rowWriter) row(r int) []bitset.Entry {
	start := int32(0)
	if r > 0 {
		start = w.ends[r-1]
	}
	return w.ents[start:w.ends[r]:w.ends[r]]
}

// rows copies the closed rows into one buffer and returns their
// headers, in the order they were closed.
func (w *rowWriter) rows() [][]bitset.Entry {
	buf := make([]bitset.Entry, len(w.ents))
	copy(buf, w.ents)
	rows := make([][]bitset.Entry, len(w.ends))
	start := int32(0)
	for r, end := range w.ends {
		rows[r] = buf[start:end:end]
		start = end
	}
	return rows
}

// appendMembers appends the members of row to dst in ascending order.
func appendMembers(dst []int32, row []bitset.Entry) []int32 {
	for _, e := range row {
		for x := e.W; x != 0; x &= x - 1 {
			dst = append(dst, e.I<<6|int32(bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// rowLists returns the rows as lists, ascending, in one backing array.
func rowLists(rows [][]bitset.Entry) [][]int32 {
	total := 0
	for _, row := range rows {
		total += rowCount(row)
	}
	backing := make([]int32, 0, total)
	lists := make([][]int32, len(rows))
	for r, row := range rows {
		off := len(backing)
		backing = appendMembers(backing, row)
		lists[r] = backing[off:len(backing):len(backing)]
	}
	return lists
}

// rowCount returns the number of members of row.
func rowCount(row []bitset.Entry) int {
	c := 0
	for _, e := range row {
		c += bits.OnesCount64(e.W)
	}
	return c
}

// initMasks sizes the state's masks and dense scratch to its problem
// and zeroes them.
func (s *state) initMasks() {
	w := rowWords(s.p.n)
	s.words = w
	s.maskBuf = resize(s.maskBuf, 12*w)
	dense := s.maskBuf
	take := func() []uint64 {
		b := dense[:w:w]
		dense = dense[w:]
		return b
	}
	s.maskM, s.maskC, s.maskE, s.maskMC = take(), take(), take(), take()
	s.reached, s.pending = take(), take()
	s.simRem, s.simFront, s.simNext, s.simNbr = take(), take(), take(), take()
	s.peelH, s.tight = take(), take()
}

// maskStatus sets v's bits of the status masks from its status.
func (s *state) maskStatus(v int32) {
	i, b := v>>6, uint64(1)<<(v&63)
	s.maskM[i] &^= b
	s.maskC[i] &^= b
	s.maskE[i] &^= b
	s.maskMC[i] &^= b
	switch s.status[v] {
	case statusM:
		s.maskM[i] |= b
		s.maskMC[i] |= b
	case statusC:
		s.maskC[i] |= b
		s.maskMC[i] |= b
	case statusE:
		s.maskE[i] |= b
	}
}

func setBit(row []uint64, v int32) { row[v>>6] |= 1 << (v & 63) }

func hasBit(row []uint64, v int32) bool { return row[v>>6]&(1<<(v&63)) != 0 }

// andCount returns |row ∧ mask|.
func andCount(row []bitset.Entry, mask []uint64) int32 {
	c := 0
	for _, e := range row {
		c += bits.OnesCount64(e.W & mask[e.I])
	}
	return int32(c)
}

// meets reports whether row ∧ mask has a member.
func meets(row []bitset.Entry, mask []uint64) bool {
	for _, e := range row {
		if e.W&mask[e.I] != 0 {
			return true
		}
	}
	return false
}

// orRow ORs row into the dense bitset dst.
func orRow(dst []uint64, row []bitset.Entry) {
	for _, e := range row {
		dst[e.I] |= e.W
	}
}

// nextBit returns the least member of row at or after v, -1 when none.
func nextBit(row []uint64, v int32) int32 {
	i := int(v >> 6)
	if i >= len(row) {
		return -1
	}
	x := row[i] & (^uint64(0) << (v & 63))
	for x == 0 {
		if i++; i == len(row) {
			return -1
		}
		x = row[i]
	}
	return int32(i<<6 | bits.TrailingZeros64(x))
}

// appendBits appends the members of the dense bitset row to dst in
// ascending order.
func appendBits(dst []int32, row []uint64) []int32 {
	for i, x := range row {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, int32(i<<6|bits.TrailingZeros64(x)))
		}
	}
	return dst
}
