// Package snapshot implements the versioned binary snapshot format
// that persists a serving engine's built state — graph, attribute
// store, per-threshold similarity indexes and filtered graphs, and
// prepared (k,r) candidate components — so a restarted process warm
// starts by reading it back instead of rebuilding everything from the
// raw graph.
//
// # Format
//
// A snapshot is a 16-byte header followed by length-prefixed sections:
//
//	header   magic [8]byte, format version u32, metric kind u8,
//	         reserved [3]byte (zero)
//	section  id u32, payload length u64, payload, CRC-32C(payload) u32
//
// Sections appear in a fixed order: attributes, graph, one threshold
// section per cached r (ascending), one prepared section per cached
// (k,r) (ascending by r then k), an optional dynamic section, and an
// end marker. All integers are little-endian; floats are IEEE-754 bit
// patterns. The encoding is canonical — writing a freshly decoded
// snapshot reproduces the input byte for byte — which is what the
// golden-file tests pin down.
//
// Every structural defect (bad magic, unsupported version, truncation,
// checksum mismatch, out-of-range vertex ids, sections out of order)
// is reported as a *FormatError wrapping a sentinel cause, so callers
// can both branch on the class of failure and print a precise
// diagnosis.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"krcore/internal/attr"
	"krcore/internal/binenc"
	"krcore/internal/core"
	"krcore/internal/fsx"
	"krcore/internal/graph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// magic identifies a snapshot stream. The 0x1a byte (ctrl-Z) stops
// accidental text-mode dumps early, PNG-style.
var magic = [8]byte{'k', 'r', 's', 'n', 'a', 'p', 0x1a, 0}

// Version is the current snapshot format version. Version 2 added the
// maintained per-vertex core numbers to each prepared section and four
// write-path counters to the dynamic section. Readers accept the
// current version and version 1 (core numbers are recomputed by linear
// peeling, the new counters start at zero); writers always emit the
// current version.
const Version = 2

// versionV1 is the previous format, still readable.
const versionV1 = 1

// Section identifiers.
const (
	secAttrs     uint32 = 1
	secGraph     uint32 = 2
	secThreshold uint32 = 3
	secPrepared  uint32 = 4
	secDynamic   uint32 = 5
	secEnd       uint32 = 6
)

// Sentinel causes wrapped by FormatError; test with errors.Is.
var (
	// ErrMagic marks input that is not a krcore snapshot at all.
	ErrMagic = errors.New("not a krcore snapshot (bad magic)")
	// ErrVersion marks a snapshot written by an unsupported format
	// version.
	ErrVersion = errors.New("unsupported snapshot format version")
	// ErrTruncated marks a snapshot that ends mid-structure.
	ErrTruncated = errors.New("snapshot truncated")
	// ErrChecksum marks a section whose payload fails its CRC.
	ErrChecksum = errors.New("section checksum mismatch")
	// ErrCorrupt marks a snapshot whose structure decodes but violates
	// the format's invariants (out-of-order sections, bad ranges,
	// inconsistent counts).
	ErrCorrupt = errors.New("snapshot corrupt")
)

// FormatError is the typed error every failed snapshot decode returns:
// the structural element being decoded and the underlying cause (one
// of the sentinel errors above, possibly annotated).
type FormatError struct {
	// Section names the structural element ("header", "graph",
	// "threshold 2", ...).
	Section string
	// Err is the underlying cause; errors.Is finds the sentinels
	// through it.
	Err error
}

// Error implements the error interface.
func (e *FormatError) Error() string { return fmt.Sprintf("snapshot: %s: %v", e.Section, e.Err) }

// Unwrap returns the underlying cause.
func (e *FormatError) Unwrap() error { return e.Err }

// formatErr builds a *FormatError wrapping cause, annotated with a
// detail message when given.
func formatErr(section string, cause error, detail string, args ...any) error {
	if detail != "" {
		cause = fmt.Errorf("%w: %s", cause, fmt.Sprintf(detail, args...))
	}
	return &FormatError{Section: section, Err: cause}
}

// IsMagic reports whether b starts with the snapshot magic, for
// callers sniffing a file that could be a snapshot or something else.
// Prefixes shorter than the magic report false.
func IsMagic(b []byte) bool {
	return len(b) >= len(magic) && bytes.Equal(b[:len(magic)], magic[:])
}

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Threshold is the cached r-dependent state of one similarity
// threshold: the oracle (with its bulk index attached) and, unless the
// entry was built for oracle-only serving, the dissimilar-edge-filtered
// graph.
type Threshold struct {
	R      float64
	Oracle *similarity.Oracle
	// Filtered is nil for oracle-only entries (threshold cached, full
	// per-r build still lazy).
	Filtered *graph.Graph
}

// PreparedSetting is one cached (k,r) problem.
type PreparedSetting struct {
	K  int
	R  float64
	Pr *core.Prepared
}

// DynamicState carries the dynamic engine's update history: the
// journal offset (updates applied since construction) and the
// maintenance counters, so a recovered process resumes its journal at
// the right position and keeps coherent statistics.
type DynamicState struct {
	Updates           int64
	Batches           int64
	Version           int64
	IndexesKept       int64
	IndexesRebuilt    int64
	ComponentsReused  int64
	ComponentsRebuilt int64

	// Write-path counters added by format version 2; a v1 snapshot
	// decodes them as zero.
	GroupCommits       int64
	PatchesIncremental int64
	PatchesFull        int64
	CoreVisited        int64
}

// counters lists the dynamic counters in serialisation order for the
// given format version: the seven v1 counters, then the four added by
// v2.
func (d *DynamicState) counters(ver uint32) []*int64 {
	fields := []*int64{&d.Updates, &d.Batches, &d.Version,
		&d.IndexesKept, &d.IndexesRebuilt, &d.ComponentsReused, &d.ComponentsRebuilt}
	if ver >= 2 {
		fields = append(fields, &d.GroupCommits, &d.PatchesIncremental, &d.PatchesFull, &d.CoreVisited)
	}
	return fields
}

// EngineState is the serialisable form of a serving engine: the
// attributed graph plus every cache level worth persisting. Exactly
// one attribute store (matching Kind) is set. Dynamic is nil for
// static engines.
type EngineState struct {
	Kind     attr.Kind
	Geo      *attr.Geo
	Keywords *attr.Keywords
	Weighted *attr.Weighted

	Graph *graph.Graph

	Thresholds []Threshold
	Prepared   []PreparedSetting

	Dynamic *DynamicState
}

// Metric returns the similarity metric over the state's attribute
// store.
func (st *EngineState) Metric() (similarity.Metric, error) {
	switch st.Kind {
	case attr.KindGeo:
		if st.Geo == nil {
			return nil, errors.New("snapshot: geo state without geo store")
		}
		return similarity.Euclidean{Store: st.Geo}, nil
	case attr.KindKeywords:
		if st.Keywords == nil {
			return nil, errors.New("snapshot: keyword state without keyword store")
		}
		return similarity.Jaccard{Store: st.Keywords}, nil
	case attr.KindWeighted:
		if st.Weighted == nil {
			return nil, errors.New("snapshot: weighted state without weighted store")
		}
		return similarity.WeightedJaccard{Store: st.Weighted}, nil
	default:
		return nil, fmt.Errorf("snapshot: unknown attribute kind %d", st.Kind)
	}
}

// storeN returns the attribute store's vertex count.
func (st *EngineState) storeN() int {
	switch st.Kind {
	case attr.KindGeo:
		return st.Geo.N()
	case attr.KindKeywords:
		return st.Keywords.N()
	default:
		return st.Weighted.N()
	}
}

// Write serialises the state at the current format version.
// Thresholds and prepared settings are written in sorted order
// whatever order the caller supplies, keeping the encoding canonical.
func Write(w io.Writer, st *EngineState) error {
	if _, err := st.Metric(); err != nil {
		return err
	}
	if st.Graph == nil {
		return errors.New("snapshot: state has no graph")
	}
	if st.Graph.N() != st.storeN() {
		return fmt.Errorf("snapshot: graph has %d vertices, attribute store %d", st.Graph.N(), st.storeN())
	}

	hdr := make([]byte, 0, 16)
	hdr = append(hdr, magic[:]...)
	var hb binenc.Buffer
	hb.U32(Version)
	hb.U8(uint8(st.Kind))
	hb.U8(0)
	hb.U8(0)
	hb.U8(0)
	hdr = append(hdr, hb.Bytes()...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	var b binenc.Buffer
	switch st.Kind {
	case attr.KindGeo:
		st.Geo.AppendBinary(&b)
	case attr.KindKeywords:
		st.Keywords.AppendBinary(&b)
	default:
		st.Weighted.AppendBinary(&b)
	}
	if err := writeSection(w, secAttrs, b.Bytes()); err != nil {
		return err
	}

	b = binenc.Buffer{}
	graph.AppendBinary(&b, st.Graph)
	if err := writeSection(w, secGraph, b.Bytes()); err != nil {
		return err
	}

	ths := append([]Threshold(nil), st.Thresholds...)
	sort.Slice(ths, func(i, j int) bool { return ths[i].R < ths[j].R })
	for i, th := range ths {
		if i > 0 && th.R == ths[i-1].R {
			return fmt.Errorf("snapshot: duplicate threshold %g", th.R)
		}
		if math.IsNaN(th.R) {
			return errors.New("snapshot: NaN threshold")
		}
		b = binenc.Buffer{}
		b.F64(th.R)
		var flags uint8
		if th.Filtered != nil {
			flags |= 1
		}
		b.U8(flags)
		idx := th.Oracle.Bulk()
		if idx == nil {
			return fmt.Errorf("snapshot: threshold %g has no bulk index", th.R)
		}
		if err := simindex.AppendIndex(&b, idx); err != nil {
			return err
		}
		if th.Filtered != nil {
			if th.Filtered.N() != st.Graph.N() {
				return fmt.Errorf("snapshot: threshold %g filtered graph has %d vertices, graph %d",
					th.R, th.Filtered.N(), st.Graph.N())
			}
			graph.AppendBinary(&b, th.Filtered)
		}
		if err := writeSection(w, secThreshold, b.Bytes()); err != nil {
			return err
		}
	}

	prs := append([]PreparedSetting(nil), st.Prepared...)
	sort.Slice(prs, func(i, j int) bool {
		if prs[i].R != prs[j].R {
			return prs[i].R < prs[j].R
		}
		return prs[i].K < prs[j].K
	})
	for i, ps := range prs {
		if i > 0 && ps.R == prs[i-1].R && ps.K == prs[i-1].K {
			return fmt.Errorf("snapshot: duplicate prepared setting (k=%d, r=%g)", ps.K, ps.R)
		}
		if !hasFilteredThreshold(ths, ps.R) {
			return fmt.Errorf("snapshot: prepared (k=%d, r=%g) without a fully built threshold %g",
				ps.K, ps.R, ps.R)
		}
		b = binenc.Buffer{}
		b.F64(ps.R)
		core.AppendPrepared(&b, ps.Pr)
		if err := writeSection(w, secPrepared, b.Bytes()); err != nil {
			return err
		}
	}

	if st.Dynamic != nil {
		b = binenc.Buffer{}
		for _, f := range st.Dynamic.counters(Version) {
			b.U64(uint64(*f))
		}
		if err := writeSection(w, secDynamic, b.Bytes()); err != nil {
			return err
		}
	}

	return writeSection(w, secEnd, nil)
}

// hasFilteredThreshold reports whether the sorted threshold list holds
// a fully built (filtered-graph-carrying) entry at exactly r.
func hasFilteredThreshold(ths []Threshold, r float64) bool {
	i := sort.Search(len(ths), func(i int) bool { return ths[i].R >= r })
	return i < len(ths) && ths[i].R == r && ths[i].Filtered != nil
}

// writeSection emits one framed section: id, payload length, payload,
// CRC-32C of the payload.
func writeSection(w io.Writer, id uint32, payload []byte) error {
	var h binenc.Buffer
	h.U32(id)
	h.U64(uint64(len(payload)))
	if _, err := w.Write(h.Bytes()); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	var c binenc.Buffer
	c.U32(crc32.Checksum(payload, castagnoli))
	_, err := w.Write(c.Bytes())
	return err
}

// Read parses a snapshot and reconstructs the engine state: stores and
// graphs are decoded, per-threshold oracles are rebuilt over the
// decoded store with their serialised bulk indexes attached, and
// prepared problems are re-anchored to those oracles. Any structural
// defect returns a *FormatError.
func Read(rd io.Reader) (*EngineState, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return nil, formatErr("header", ErrTruncated, "%v", err)
	}
	if !IsMagic(hdr) {
		return nil, formatErr("header", ErrMagic, "")
	}
	hr := binenc.NewReader(hdr[8:])
	ver := hr.U32()
	if ver != Version && ver != versionV1 {
		return nil, formatErr("header", ErrVersion, "version %d, this build reads %d and %d",
			ver, versionV1, Version)
	}
	kind := attr.Kind(hr.U8())
	if kind != attr.KindGeo && kind != attr.KindKeywords && kind != attr.KindWeighted {
		return nil, formatErr("header", ErrCorrupt, "unknown metric kind %d", kind)
	}
	if hr.U8() != 0 || hr.U8() != 0 || hr.U8() != 0 {
		return nil, formatErr("header", ErrCorrupt, "reserved header bytes not zero")
	}

	st := &EngineState{Kind: kind}
	var metric similarity.Metric
	var prev uint32 // id of the previous section; ids must not decrease
	for {
		id, payload, err := readSection(rd)
		if err != nil {
			return nil, err
		}
		name := sectionName(id)
		// Sections must appear in id order; only thresholds and
		// prepared settings may repeat.
		if id < prev || (id == prev && id != secThreshold && id != secPrepared) {
			return nil, formatErr(name, ErrCorrupt, "section out of order")
		}
		if id > secEnd {
			return nil, formatErr(name, ErrCorrupt, "unknown section id %d", id)
		}
		if id > secAttrs && st.storeMissing() {
			return nil, formatErr(name, ErrCorrupt, "attribute section missing")
		}
		if id > secGraph && st.Graph == nil {
			return nil, formatErr(name, ErrCorrupt, "graph section missing")
		}
		prev = id
		r := binenc.NewReader(payload)
		switch id {
		case secAttrs:
			if err := st.decodeAttrs(r); err != nil {
				return nil, formatErr(name, ErrCorrupt, "%v", err)
			}
			metric, _ = st.Metric()
		case secGraph:
			g, err := graph.DecodeBinary(r)
			if err != nil {
				return nil, formatErr(name, ErrCorrupt, "%v", err)
			}
			if g.N() != st.storeN() {
				return nil, formatErr(name, ErrCorrupt,
					"graph has %d vertices, attribute store %d", g.N(), st.storeN())
			}
			st.Graph = g
		case secThreshold:
			th, err := decodeThreshold(r, metric, st.Graph)
			if err != nil {
				return nil, formatErr(fmt.Sprintf("threshold %d", len(st.Thresholds)), ErrCorrupt, "%v", err)
			}
			if n := len(st.Thresholds); n > 0 && th.R <= st.Thresholds[n-1].R {
				return nil, formatErr(name, ErrCorrupt, "thresholds not strictly ascending")
			}
			st.Thresholds = append(st.Thresholds, th)
		case secPrepared:
			ps, err := st.decodePrepared(r, ver)
			if err != nil {
				return nil, formatErr(fmt.Sprintf("prepared %d", len(st.Prepared)), ErrCorrupt, "%v", err)
			}
			if n := len(st.Prepared); n > 0 {
				last := st.Prepared[n-1]
				if ps.R < last.R || (ps.R == last.R && ps.K <= last.K) {
					return nil, formatErr(name, ErrCorrupt, "prepared settings not strictly ascending")
				}
			}
			st.Prepared = append(st.Prepared, ps)
		case secDynamic:
			var d DynamicState
			fields := d.counters(ver)
			for _, f := range fields {
				*f = int64(r.U64())
			}
			// An underflow must fail here, not decode missing trailing
			// counters as zero — a zero Updates would make a recovery
			// replay the whole journal from offset 0.
			if err := r.Err(); err != nil {
				return nil, formatErr(name, ErrCorrupt, "%v", err)
			}
			for _, f := range fields {
				if *f < 0 {
					return nil, formatErr(name, ErrCorrupt, "negative counter")
				}
			}
			st.Dynamic = &d
		case secEnd:
			if r.Remaining() != 0 {
				return nil, formatErr(name, ErrCorrupt, "end marker carries payload")
			}
			if st.Graph == nil {
				return nil, formatErr(name, ErrCorrupt, "graph section missing")
			}
			// Anything after the end marker is not part of the format.
			var one [1]byte
			if n, _ := rd.Read(one[:]); n != 0 {
				return nil, formatErr(name, ErrCorrupt, "trailing data after end marker")
			}
			return st, nil
		}
		if id != secEnd && r.Remaining() != 0 {
			return nil, formatErr(name, ErrCorrupt, "%d trailing bytes in section", r.Remaining())
		}
	}
}

// storeMissing reports whether no attribute store has been decoded yet.
func (st *EngineState) storeMissing() bool {
	return st.Geo == nil && st.Keywords == nil && st.Weighted == nil
}

// decodeAttrs decodes the attribute section for the header's kind.
func (st *EngineState) decodeAttrs(r *binenc.Reader) error {
	var err error
	switch st.Kind {
	case attr.KindGeo:
		st.Geo, err = attr.DecodeGeo(r)
	case attr.KindKeywords:
		st.Keywords, err = attr.DecodeKeywords(r)
	default:
		st.Weighted, err = attr.DecodeWeighted(r)
	}
	return err
}

// decodeThreshold decodes one threshold section: r, flags, the bulk
// index, and (when flagged) the filtered graph.
func decodeThreshold(r *binenc.Reader, metric similarity.Metric, g *graph.Graph) (Threshold, error) {
	rv := r.F64()
	flags := r.U8()
	if err := r.Err(); err != nil {
		return Threshold{}, err
	}
	if math.IsNaN(rv) {
		return Threshold{}, errors.New("NaN threshold")
	}
	if flags&^1 != 0 {
		return Threshold{}, fmt.Errorf("unknown flags %#x", flags)
	}
	o := similarity.NewOracle(metric, rv)
	idx, err := simindex.DecodeIndex(r, o)
	if err != nil {
		return Threshold{}, err
	}
	o.SetBulk(idx)
	th := Threshold{R: rv, Oracle: o}
	if flags&1 != 0 {
		fg, err := graph.DecodeBinary(r)
		if err != nil {
			return Threshold{}, fmt.Errorf("filtered %w", err)
		}
		if fg.N() != g.N() {
			return Threshold{}, fmt.Errorf("filtered graph has %d vertices, graph %d", fg.N(), g.N())
		}
		th.Filtered = fg
	}
	return th, nil
}

// decodePrepared decodes one prepared section, anchoring it to the
// already-decoded threshold of its r (which must be fully built). ver
// selects the payload flavour: v2 carries maintained core numbers, v1
// recomputes them from the threshold's filtered graph.
func (st *EngineState) decodePrepared(r *binenc.Reader, ver uint32) (PreparedSetting, error) {
	rv := r.F64()
	if err := r.Err(); err != nil {
		return PreparedSetting{}, err
	}
	i := sort.Search(len(st.Thresholds), func(i int) bool { return st.Thresholds[i].R >= rv })
	if i >= len(st.Thresholds) || st.Thresholds[i].R != rv {
		return PreparedSetting{}, fmt.Errorf("no threshold section for r=%g", rv)
	}
	th := st.Thresholds[i]
	if th.Filtered == nil {
		return PreparedSetting{}, fmt.Errorf("threshold r=%g is oracle-only, cannot anchor prepared state", rv)
	}
	pr, err := core.DecodePrepared(r, th.Oracle, st.Graph.N(), th.Filtered, ver >= 2)
	if err != nil {
		return PreparedSetting{}, err
	}
	return PreparedSetting{K: pr.K(), R: rv, Pr: pr}, nil
}

// sectionName names a section id for error messages.
func sectionName(id uint32) string {
	switch id {
	case secAttrs:
		return "attributes"
	case secGraph:
		return "graph"
	case secThreshold:
		return "threshold"
	case secPrepared:
		return "prepared"
	case secDynamic:
		return "dynamic"
	case secEnd:
		return "end"
	default:
		return fmt.Sprintf("section %d", id)
	}
}

// WriteFileAtomic persists a snapshot to path atomically, the shared
// checkpoint-writing path of the commands: save writes into a
// temporary file in path's directory, which is synced and renamed over
// the target, so a crash mid-write never leaves a truncated snapshot
// and readers (or crash restarts) only ever see complete files. It
// returns the snapshot's size in bytes.
func WriteFileAtomic(path string, save func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := save(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	// CreateTemp hard-codes 0600 and rename preserves it; published
	// snapshots follow the usual world-readable artifact convention so
	// backup jobs and other users can load them.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, err
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	// POSIX rename durability: the new directory entry survives power
	// loss only after the containing directory is fsynced. Windows has
	// no directory-handle sync, so the flush is left to the OS there.
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// readSection reads one framed section, verifying its checksum. The
// payload buffer grows with the bytes actually present, so a corrupt
// length on a truncated stream cannot drive an outsized allocation.
func readSection(rd io.Reader) (uint32, []byte, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return 0, nil, formatErr("section header", ErrTruncated, "%v", err)
	}
	hr := binenc.NewReader(hdr)
	id := hr.U32()
	n := hr.U64()
	name := sectionName(id)
	var buf bytes.Buffer
	// Grow once for the common case; the cap keeps a lying length on a
	// truncated stream from driving an outsized allocation (the buffer
	// still grows naturally past it for genuinely large sections).
	if n < 1<<24 {
		buf.Grow(int(n))
	} else {
		buf.Grow(1 << 24)
	}
	if copied, err := io.CopyN(&buf, rd, int64(n)); err != nil || uint64(copied) != n {
		return 0, nil, formatErr(name, ErrTruncated, "payload %d of %d bytes", buf.Len(), n)
	}
	crc := make([]byte, 4)
	if _, err := io.ReadFull(rd, crc); err != nil {
		return 0, nil, formatErr(name, ErrTruncated, "missing checksum")
	}
	payload := buf.Bytes()
	if got, want := crc32.Checksum(payload, castagnoli), binenc.NewReader(crc).U32(); got != want {
		return 0, nil, formatErr(name, ErrChecksum, "computed %08x, stored %08x", got, want)
	}
	return id, payload, nil
}
