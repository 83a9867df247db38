// Package updates defines a replayable text format for dynamic-graph
// update streams plus the adapters that wire a generated dataset into
// krcore.DynamicEngine. cmd/datagen writes streams, cmd/krcore replays
// them with -updates, and the expr harness uses Random for the
// update-latency experiment.
//
// Format: one operation per line; blank lines and lines starting with
// '#' are ignored.
//
//	ae <u> <v>       add the undirected edge (u,v)
//	re <u> <v>       remove the undirected edge (u,v)
//	av               add one isolated vertex
//	sa <u> <attrs>   set the attributes of u; the payload uses the
//	                 dataset vertex-line format for the stream's kind:
//	                 "x y" (geo), keyword ids (keywords), or
//	                 "key:weight" pairs (weighted keywords)
package updates

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"krcore"
	"krcore/internal/attr"
	"krcore/internal/dataset"
)

// Attrs wraps the dataset's attribute store as a
// krcore.DynamicAttributes, so the dataset can back a DynamicEngine.
// The engine never writes the store after construction (see
// NewDynamicEngine).
func Attrs(d *dataset.Dataset) (krcore.DynamicAttributes, error) {
	return krcore.DynamicAttributesFor(d.Metric())
}

// Stream is a parsed update stream that remembers the source line of
// every operation, so a replay rejection can point back into the file
// it came from (Lines[i] is the 1-based line of Ups[i]).
type Stream struct {
	Ups   []krcore.Update
	Lines []int
}

// ParseStream reads an update stream for the given attribute kind,
// keeping source line numbers. A malformed line aborts the parse with
// its line number — nothing of the stream is considered applicable.
func ParseStream(r io.Reader, kind attr.Kind) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := &Stream{}
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		up, err := parseOp(fields, kind)
		if err != nil {
			return nil, fmt.Errorf("updates: line %d: %w", line, err)
		}
		s.Ups = append(s.Ups, up)
		s.Lines = append(s.Lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseTail reads a journal-stream fragment that may have been cut off
// mid-transfer — the follower-side parse of a streamed tail. Complete
// lines (newline-terminated) parse exactly as in ParseStream; a final
// line without its terminating newline is discarded and reported via
// truncated=true rather than parsed, because a mid-entry cut can yield
// a line that still parses as a valid — but wrong — operation (an "sa"
// payload missing its last keywords, say). The caller applies the
// complete prefix and re-fetches the rest from its own offset. A
// malformed complete line is a hard error: TCP does not truncate in
// the middle of a stream, so garbage there means a corrupt sender.
//
// A mid-body read ERROR (a dropped connection surfaces as one, not as
// a clean EOF) is truncation too: the complete prefix before it is
// intact, so it is returned with truncated=true instead of an error —
// the retry semantics are identical either way.
func ParseTail(r io.Reader, kind attr.Kind) (s *Stream, truncated bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	s = &Stream{}
	line := 0
	for {
		text, rerr := br.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return s, true, nil
		}
		complete := strings.HasSuffix(text, "\n")
		if complete {
			line++
			fields := strings.Fields(text)
			if len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
				up, perr := parseOp(fields, kind)
				if perr != nil {
					return nil, false, fmt.Errorf("updates: line %d: %w", line, perr)
				}
				s.Ups = append(s.Ups, up)
				s.Lines = append(s.Lines, line)
			}
		} else if len(text) > 0 {
			truncated = true
		}
		if rerr == io.EOF {
			return s, truncated, nil
		}
	}
}

// Parse reads an update stream for the given attribute kind.
func Parse(r io.Reader, kind attr.Kind) ([]krcore.Update, error) {
	s, err := ParseStream(r, kind)
	if err != nil {
		return nil, err
	}
	return s.Ups, nil
}

func parseOp(fields []string, kind attr.Kind) (krcore.Update, error) {
	parseEdge := func() (int32, int32, error) {
		if len(fields) != 3 {
			return 0, 0, fmt.Errorf("%s needs two endpoints, got %d fields", fields[0], len(fields)-1)
		}
		u, err1 := strconv.ParseInt(fields[1], 10, 32)
		v, err2 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("bad endpoints %v", fields[1:])
		}
		return int32(u), int32(v), nil
	}
	switch fields[0] {
	case "ae":
		u, v, err := parseEdge()
		return krcore.AddEdgeUpdate(u, v), err
	case "re":
		u, v, err := parseEdge()
		return krcore.RemoveEdgeUpdate(u, v), err
	case "av":
		if len(fields) != 1 {
			return krcore.Update{}, fmt.Errorf("av takes no arguments, got %v", fields[1:])
		}
		return krcore.AddVertexUpdate(), nil
	case "sa":
		if len(fields) < 2 {
			return krcore.Update{}, fmt.Errorf("sa needs a vertex id")
		}
		u, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return krcore.Update{}, fmt.Errorf("bad vertex id %q", fields[1])
		}
		a, err := parsePayload(fields[2:], kind)
		if err != nil {
			return krcore.Update{}, err
		}
		return krcore.SetAttributesUpdate(int32(u), a), nil
	default:
		return krcore.Update{}, fmt.Errorf("unknown op %q", fields[0])
	}
}

func parsePayload(fields []string, kind attr.Kind) (krcore.VertexAttributes, error) {
	var a krcore.VertexAttributes
	switch kind {
	case attr.KindGeo:
		if len(fields) != 2 {
			return a, fmt.Errorf("geo payload needs x y, got %d fields", len(fields))
		}
		x, err1 := strconv.ParseFloat(fields[0], 64)
		y, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			return a, fmt.Errorf("bad coordinates %v", fields)
		}
		a.X, a.Y = x, y
	case attr.KindWeighted:
		for _, f := range fields {
			kv := strings.SplitN(f, ":", 2)
			if len(kv) != 2 {
				return a, fmt.Errorf("bad weighted entry %q", f)
			}
			k, err1 := strconv.ParseInt(kv[0], 10, 32)
			w, err2 := strconv.ParseFloat(kv[1], 64)
			if err1 != nil || err2 != nil {
				return a, fmt.Errorf("bad weighted entry %q", f)
			}
			a.Keys = append(a.Keys, int32(k))
			a.Weights = append(a.Weights, w)
		}
	default:
		for _, f := range fields {
			k, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return a, fmt.Errorf("bad keyword %q", f)
			}
			a.Keys = append(a.Keys, int32(k))
		}
	}
	return a, nil
}

// Write serialises an update stream for the given attribute kind.
func Write(w io.Writer, ups []krcore.Update, kind attr.Kind) error {
	bw := bufio.NewWriter(w)
	for _, up := range ups {
		switch up.Op {
		case krcore.OpAddEdge:
			fmt.Fprintf(bw, "ae %d %d\n", up.U, up.V)
		case krcore.OpRemoveEdge:
			fmt.Fprintf(bw, "re %d %d\n", up.U, up.V)
		case krcore.OpAddVertex:
			fmt.Fprintln(bw, "av")
		case krcore.OpSetAttributes:
			fmt.Fprintf(bw, "sa %d", up.U)
			switch kind {
			case attr.KindGeo:
				fmt.Fprintf(bw, " %g %g", up.Attrs.X, up.Attrs.Y)
			case attr.KindWeighted:
				for i, k := range up.Attrs.Keys {
					w := 1.0
					if i < len(up.Attrs.Weights) {
						w = up.Attrs.Weights[i]
					}
					fmt.Fprintf(bw, " %d:%g", k, w)
				}
			default:
				for _, k := range up.Attrs.Keys {
					fmt.Fprintf(bw, " %d", k)
				}
			}
			fmt.Fprintln(bw)
		default:
			return fmt.Errorf("updates: cannot serialise op %v", up.Op)
		}
	}
	return bw.Flush()
}

// Random generates a plausible social-network update stream for the
// dataset: mostly edge churn (new friendships between similar-community
// members, dropped friendships), some attribute drift, and occasional
// new users wired into the graph. The stream is valid to replay against
// the dataset in order, and deterministic for a given seed.
func Random(d *dataset.Dataset, n int, seed int64) []krcore.Update {
	rng := rand.New(rand.NewSource(seed))
	nv := d.Graph.N()
	// Track a removable-edge pool; start from a sample of real edges.
	type edge = [2]int32
	var pool []edge
	d.Graph.Edges(func(u, v int32) {
		if len(pool) < 4*n || rng.Intn(8) == 0 {
			pool = append(pool, edge{u, v})
		}
	})
	randVertex := func() int32 { return int32(rng.Intn(nv)) }
	// Prefer community members for added edges so updates hit the dense
	// regions the (k,r) queries care about.
	commVertex := func() int32 {
		if len(d.Communities) == 0 || rng.Intn(4) == 0 {
			return randVertex()
		}
		c := d.Communities[rng.Intn(len(d.Communities))]
		return c[rng.Intn(len(c))]
	}
	ups := make([]krcore.Update, 0, n)
	for len(ups) < n {
		switch roll := rng.Intn(100); {
		case roll < 45: // new friendship
			u, v := commVertex(), commVertex()
			if u == v {
				continue
			}
			ups = append(ups, krcore.AddEdgeUpdate(u, v))
			pool = append(pool, edge{u, v})
		case roll < 75: // dropped friendship
			if len(pool) == 0 {
				continue
			}
			i := rng.Intn(len(pool))
			e := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			ups = append(ups, krcore.RemoveEdgeUpdate(e[0], e[1]))
		case roll < 95: // profile drift
			ups = append(ups, krcore.SetAttributesUpdate(commVertex(), randomPayload(d, rng)))
		default: // new user joins and makes two friends
			id := int32(nv)
			nv++
			ups = append(ups,
				krcore.AddVertexUpdate(),
				krcore.SetAttributesUpdate(id, randomPayload(d, rng)))
			for i := 0; i < 2 && len(ups) < n; i++ {
				// A random draw can name the new user itself: skip
				// that self-loop, which the engine rejects, but keep
				// the draw, so the rest of the stream is unchanged.
				if w := commVertex(); w != id {
					ups = append(ups, krcore.AddEdgeUpdate(id, w))
				}
			}
		}
	}
	return ups[:n]
}

// randomPayload draws new attributes near the dataset's existing
// distribution: a jittered position for geo stores, a resampled
// existing vertex's keywords otherwise.
func randomPayload(d *dataset.Dataset, rng *rand.Rand) krcore.VertexAttributes {
	donor := int32(rng.Intn(d.Graph.N()))
	switch d.Kind {
	case attr.KindGeo:
		p := d.Geo.Vertex(donor)
		return krcore.VertexAttributes{
			X: p.X + rng.NormFloat64()*3,
			Y: p.Y + rng.NormFloat64()*3,
		}
	case attr.KindWeighted:
		keys := append([]int32(nil), d.Weighted.Keys(donor)...)
		weights := append([]float64(nil), d.Weighted.Weights(donor)...)
		return krcore.VertexAttributes{Keys: keys, Weights: weights}
	default:
		return krcore.VertexAttributes{Keys: append([]int32(nil), d.Keywords.Vertex(donor)...)}
	}
}

// Replay applies the stream to the engine in batches of batch
// operations (1 replays one update per commit) and returns the number
// of committed batches. Invalid updates abort with the position of the
// failing batch.
func Replay(eng *krcore.DynamicEngine, ups []krcore.Update, batch int) (int, error) {
	return replay(eng, ups, nil, batch)
}

// ReplayStream is Replay with source positions: when a batch is
// rejected, the error names the 1-based source line of the offending
// operation (via krcore.BatchError), and — because ApplyBatch is
// atomic — nothing of that batch has been committed. Earlier batches
// stay committed; the returned count says how many.
func (s *Stream) ReplayStream(eng *krcore.DynamicEngine, batch int) (int, error) {
	return replay(eng, s.Ups, s.Lines, batch)
}

// ReplayStreamFrom replays the stream's operations from the given
// offset — the crash-recovery path: an engine restored from a
// snapshot resumes its journal at krcore.DynamicEngine.JournalOffset,
// skipping the operations the snapshot already contains. Rejections
// keep their original source line numbers.
func (s *Stream) ReplayStreamFrom(eng *krcore.DynamicEngine, offset int64, batch int) (int, error) {
	if offset < 0 || offset > int64(len(s.Ups)) {
		return 0, fmt.Errorf("updates: journal offset %d outside stream of %d operations", offset, len(s.Ups))
	}
	return replay(eng, s.Ups[offset:], s.Lines[offset:], batch)
}

// replay drives batched ApplyBatch commits, attributing failures to a
// source line when positions are known.
func replay(eng *krcore.DynamicEngine, ups []krcore.Update, lines []int, batch int) (int, error) {
	if batch < 1 {
		batch = 1
	}
	committed := 0
	for off := 0; off < len(ups); off += batch {
		end := off + batch
		if end > len(ups) {
			end = len(ups)
		}
		if err := eng.ApplyBatch(ups[off:end]); err != nil {
			var be *krcore.BatchError
			if lines != nil && errors.As(err, &be) && off+be.Index < len(lines) {
				return committed, fmt.Errorf(
					"updates: line %d: invalid %s update: %w (batch of %d discarded, %d batches committed)",
					lines[off+be.Index], be.Op, be.Err, end-off, committed)
			}
			return committed, fmt.Errorf("updates: batch at op %d: %w", off, err)
		}
		committed++
	}
	return committed, nil
}
