package core

import "math/bits"

// Bitset rows of a component. A search state holds one adjacency row
// and one dissimilarity row per vertex, bitsets over the component's n
// vertices, plus dense masks of M, C, E and M∪C, ⌈n/64⌉ words each,
// that transition keeps current. A row is stored as its nonzero words
// with their word indexes, the container idea of Roaring bitmaps, so
// ANDing it with a dense mask visits only those words: no more word
// operations than a walk of the vertex's list, whether the component is
// narrow and dense or wide and sparse. The state's per-vertex counters
// are such ANDs and popcounts (state.go), and so are the Δ1/Δ2
// simulation (simulateBranch), the (k,k')-core bound (simPeelBound) and
// the connectivity search (reach), on every component. A row never has
// more entries than its list has elements, so the rows take at most
// four times the bytes of the lists.
//
// A row's entries ascend by word index and its bits ascend within a
// word, so a walk over a row visits the members of the sorted list in
// list order.

// rowEntry is one nonzero word of a row: bits w of word i, which holds
// the vertices 64i to 64i+63.
type rowEntry struct {
	w uint64
	i int32
}

// rowWords is the width of a dense bitset over n vertices.
func rowWords(n int) int { return (n + 63) / 64 }

// buildRows fills the state's rows from p's lists, all of them in one
// pooled entry buffer, and zeroes its masks and dense scratch.
func (s *state) buildRows() {
	n, w := s.p.n, rowWords(s.p.n)
	s.words = w
	size := 0
	for v := 0; v < n; v++ {
		size += min(len(s.p.adj[v]), w) + min(len(s.p.dissim[v]), w)
	}
	if cap(s.entries) < size {
		// Headers past 2n, left by a larger component, would keep the old
		// buffer alive in the pool.
		clear(s.rows[:cap(s.rows)])
		s.entries = make([]rowEntry, size)
	}
	s.rows = resize(s.rows, 2*n)
	buf := s.entries[:0]
	for v := 0; v < n; v++ {
		start := len(buf)
		buf = appendRow(buf, s.p.adj[v])
		s.rows[v] = buf[start:len(buf):len(buf)]
		start = len(buf)
		buf = appendRow(buf, s.p.dissim[v])
		s.rows[n+v] = buf[start:len(buf):len(buf)]
	}
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

// appendRow appends the row of the sorted list to buf.
func appendRow(buf []rowEntry, list []int32) []rowEntry {
	start := len(buf)
	for _, u := range list {
		i, b := u>>6, uint64(1)<<(u&63)
		if last := len(buf) - 1; last >= start && buf[last].i == i {
			buf[last].w |= b
		} else {
			buf = append(buf, rowEntry{w: b, i: i})
		}
	}
	return buf
}

// adjOf and disOf return v's adjacency and dissimilarity rows.
func (s *state) adjOf(v int32) []rowEntry { return s.rows[v] }

func (s *state) disOf(v int32) []rowEntry { return s.rows[s.p.n+int(v)] }

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
func andCount(row []rowEntry, mask []uint64) int32 {
	c := 0
	for _, e := range row {
		c += bits.OnesCount64(e.w & mask[e.i])
	}
	return int32(c)
}

// meets reports whether row ∧ mask has a member.
func meets(row []rowEntry, mask []uint64) bool {
	for _, e := range row {
		if e.w&mask[e.i] != 0 {
			return true
		}
	}
	return false
}

// orRow ORs row into the dense bitset dst.
func orRow(dst []uint64, row []rowEntry) {
	for _, e := range row {
		dst[e.i] |= e.w
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
