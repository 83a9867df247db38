package krcore_test

import (
	"bytes"
	"testing"
	"time"

	"krcore"
	"krcore/internal/snapshot"
)

// gateWriter blocks its first Write until released, so a test can hold
// a snapshot encode mid-stream and probe what else the engine lets
// happen meanwhile.
type gateWriter struct {
	entered chan struct{} // closed when the first Write arrives
	release chan struct{} // Write returns once this closes
	buf     bytes.Buffer
	once    bool
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if !g.once {
		g.once = true
		close(g.entered)
		<-g.release
	}
	return g.buf.Write(p)
}

// TestDynamicSaveSnapshotDoesNotBlockWrites pins the lockheld fix:
// SaveSnapshot streams the encoding with no lock held, so a slow
// snapshot destination (NFS, a throttled disk) cannot stall the write
// path. Before the fix the encode ran under the engine's read lock and
// the AddEdge below sat blocked until the writer released, tripping
// the timeout.
func TestDynamicSaveSnapshotDoesNotBlockWrites(t *testing.T) {
	g, geo := snapGeoInstance()
	eng, err := krcore.NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	preUpdates := eng.DynamicStats().Updates
	preM := eng.M()

	gw := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	saveErr := make(chan error, 1)
	go func() { saveErr <- eng.SaveSnapshot(gw) }()
	<-gw.entered

	// With the snapshot encode parked inside Write, a mutation must
	// still commit.
	mutated := make(chan error, 1)
	go func() { mutated <- eng.AddEdge(0, int32(eng.N()-1)) }()
	select {
	case err := <-mutated:
		if err != nil {
			t.Fatalf("AddEdge during snapshot write: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(gw.release)
		t.Fatal("AddEdge blocked behind an in-flight snapshot write: snapshot I/O is holding the serving lock")
	}

	close(gw.release)
	if err := <-saveErr; err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	// The snapshot must reflect the captured (pre-mutation) state, not
	// the concurrently applied edge.
	loaded, err := krcore.LoadDynamicEngine(bytes.NewReader(gw.buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadDynamicEngine of bytes written concurrently with a mutation: %v", err)
	}
	if got := loaded.DynamicStats().Updates; got != preUpdates {
		t.Fatalf("snapshot captured Updates=%d, want the pre-mutation %d", got, preUpdates)
	}
	if got := loaded.M(); got != preM {
		t.Fatalf("snapshot captured M=%d edges, want the pre-mutation %d", got, preM)
	}
}

// TestDynamicSaveSnapshotCloneIsolation pins the isolation half of the
// same fix: the encoder streams the attribute store of the snapshot it
// captured, which an attribute write applied meanwhile leaves alone (the
// write edits a copy), so the mutation cannot leak into (or race with)
// the snapshot bytes.
func TestDynamicSaveSnapshotCloneIsolation(t *testing.T) {
	g, geo := snapGeoInstance()
	eng, err := krcore.NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}

	gw := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	saveErr := make(chan error, 1)
	go func() { saveErr <- eng.SaveSnapshot(gw) }()
	<-gw.entered

	done := make(chan error, 1)
	go func() {
		done <- eng.SetAttributes(0, krcore.VertexAttributes{X: 9999, Y: 9999})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SetAttributes during snapshot write: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(gw.release)
		t.Fatal("SetAttributes blocked behind an in-flight snapshot write")
	}

	close(gw.release)
	if err := <-saveErr; err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	st, err := snapshot.Read(bytes.NewReader(gw.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Geo.Vertex(0); p.X == 9999 && p.Y == 9999 {
		t.Fatal("snapshot bytes contain the post-capture attribute mutation")
	}
}
