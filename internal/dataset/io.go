package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"krcore/internal/attr"
	"krcore/internal/graph"
)

// Open resolves the CLI dataset-source convention shared by the
// commands: exactly one of preset (a built-in name for Load) or file
// (a path written by datagen, for Read) must be given.
func Open(preset, file string) (*Dataset, error) {
	switch {
	case preset != "" && file != "":
		return nil, fmt.Errorf("use either -data or -load, not both")
	case preset != "":
		return Load(preset)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Read(f)
	default:
		return nil, fmt.Errorf("need -data <preset> or -load <file>")
	}
}

// Save writes the dataset in a line-oriented text format:
//
//	d <name> <kind> <n>
//	v <id> <attributes>      one line per vertex
//	e <u> <v>                one line per edge
//
// Geo attributes are "x y"; keyword attributes are space-separated ids;
// weighted attributes are "key:weight" pairs.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	n := d.Graph.N()
	if _, err := fmt.Fprintf(bw, "d %s %d %d\n", d.Name, int(d.Kind), n); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		fmt.Fprintf(bw, "v %d", u)
		switch d.Kind {
		case attr.KindGeo:
			p := d.Geo.Vertex(int32(u))
			fmt.Fprintf(bw, " %g %g", p.X, p.Y)
		case attr.KindWeighted:
			for _, e := range d.Weighted.Vertex(int32(u)) {
				fmt.Fprintf(bw, " %d:%g", e.Key, e.Weight)
			}
		default:
			for _, k := range d.Keywords.Vertex(int32(u)) {
				fmt.Fprintf(bw, " %d", k)
			}
		}
		fmt.Fprintln(bw)
	}
	var saveErr error
	d.Graph.Edges(func(u, v int32) {
		if saveErr == nil {
			_, saveErr = fmt.Fprintf(bw, "e %d %d\n", u, v)
		}
	})
	if saveErr != nil {
		return saveErr
	}
	return bw.Flush()
}

// Read parses a dataset previously written by Save. Planted community
// information is not serialised.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != "d" {
		return nil, fmt.Errorf("dataset: bad header %q", sc.Text())
	}
	kindInt, err := strconv.Atoi(header[2])
	if err != nil {
		return nil, fmt.Errorf("dataset: bad kind: %v", err)
	}
	n, err := strconv.Atoi(header[3])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("dataset: bad vertex count %q", header[3])
	}
	d := &Dataset{Name: header[1], Kind: attr.Kind(kindInt)}
	switch d.Kind {
	case attr.KindGeo:
		d.Geo = attr.NewGeo(n)
	case attr.KindWeighted:
		d.Weighted = attr.NewWeighted(n)
	case attr.KindKeywords:
		d.Keywords = attr.NewKeywords(n)
	default:
		return nil, fmt.Errorf("dataset: unknown kind %d", kindInt)
	}
	b := graph.NewBuilder(n)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "v":
			if err := d.parseVertex(fields[1:], n); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %v", line, err)
			}
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: bad edge %q", line, sc.Text())
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || u >= n || v < 0 || v >= n {
				return nil, fmt.Errorf("dataset: line %d: bad edge %q", line, sc.Text())
			}
			b.AddEdge(int32(u), int32(v))
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d.Graph = b.Build()
	return d, nil
}

func (d *Dataset) parseVertex(fields []string, n int) error {
	if len(fields) < 1 {
		return fmt.Errorf("missing vertex id")
	}
	id, err := strconv.Atoi(fields[0])
	if err != nil || id < 0 || id >= n {
		return fmt.Errorf("bad vertex id %q", fields[0])
	}
	rest := fields[1:]
	switch d.Kind {
	case attr.KindGeo:
		if len(rest) != 2 {
			return fmt.Errorf("geo vertex needs x y, got %d fields", len(rest))
		}
		x, err1 := strconv.ParseFloat(rest[0], 64)
		y, err2 := strconv.ParseFloat(rest[1], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad coordinates %v", rest)
		}
		d.Geo.SetVertex(int32(id), attr.Point{X: x, Y: y})
	case attr.KindWeighted:
		entries := make([]attr.WeightedEntry, 0, len(rest))
		for _, f := range rest {
			kv := strings.SplitN(f, ":", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad weighted entry %q", f)
			}
			k, err1 := strconv.ParseInt(kv[0], 10, 32)
			w, err2 := strconv.ParseFloat(kv[1], 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad weighted entry %q", f)
			}
			entries = append(entries, attr.WeightedEntry{Key: int32(k), Weight: w})
		}
		if err := attr.CheckWeights(entries); err != nil {
			return fmt.Errorf("bad weighted entries: %v", err)
		}
		d.Weighted.SetVertex(int32(id), entries)
	default:
		words := make([]int32, 0, len(rest))
		for _, f := range rest {
			k, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return fmt.Errorf("bad keyword %q", f)
			}
			words = append(words, int32(k))
		}
		d.Keywords.SetVertex(int32(id), words)
	}
	return nil
}
