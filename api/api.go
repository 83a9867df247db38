// Package api defines the JSON wire format of the krcored serving
// daemon: request and response bodies shared by the HTTP server
// (krcore/server) and the Go client (krcore/client), plus the
// conversions between wire updates and krcore.Update values.
//
// The format is deliberately plain JSON over HTTP — one POST per query
// — so non-Go clients need nothing beyond an HTTP library. Vertex ids
// are int32 (as in the krcore API) and serialise exactly, so cores
// returned over the wire are bit-identical to in-process results.
package api

import (
	"fmt"

	"krcore"
)

// Endpoint paths served by krcored.
const (
	PathHealth    = "/healthz"
	PathEnumerate = "/v1/enumerate"
	PathMaximum   = "/v1/maximum"
	PathWarm      = "/v1/warm"
	PathUpdate    = "/v1/update"
	// PathMetrics serves the daemon's full metric registry in Prometheus
	// text exposition format (0.0.4) — latency histograms, admission and
	// cache counters, graph size, write-path instrumentation. It is the
	// daemon's one stats surface. GET, not JSON.
	PathMetrics = "/metrics"

	// PathSnapshot (GET) streams the engine's current snapshot in the
	// binary krsnap format; the snapshot carries its own journal offset,
	// echoed in HeaderOffset. This is how a follower bootstraps.
	PathSnapshot = "/v1/snapshot"
	// PathJournal (GET) streams committed journal operations in the
	// internal/updates text wire format, starting at the absolute offset
	// given by the "from" query parameter. "wait_ms" long-polls up to
	// that long for new operations, "max" caps the operations returned.
	// A "from" older than the journal's compacted base answers 410 Gone:
	// the tail is no longer replayable and the follower must
	// re-bootstrap from PathSnapshot.
	PathJournal = "/v1/journal"
	// PathReplication (GET) reports the node's replication role and
	// offsets as a ReplicationStatus.
	PathReplication = "/v1/replication"
	// PathPromote (POST) turns a read-only follower into a writable
	// leader (failover). Idempotent on an already-writable node.
	PathPromote = "/v1/promote"
)

// Headers of the replication endpoints.
const (
	// HeaderKind carries the attribute-store kind of a journal stream or
	// snapshot ("geo", "keywords", ...), so a follower can refuse to
	// apply a tail from a differently-typed leader.
	HeaderKind = "X-Krcore-Kind"
	// HeaderOffset is the absolute journal offset of a PathSnapshot
	// response: the number of operations already folded into it.
	HeaderOffset = "X-Krcore-Offset"
	// HeaderEnd is the absolute offset just past the last COMMITTED
	// operation in the serving journal at read time — not the last
	// operation returned (a "max" cap can hold the body short of it).
	// The next poll starts at from + operations-returned; HeaderEnd
	// minus that is the remaining lag. Set even on an empty body.
	HeaderEnd = "X-Krcore-End"
)

// Replication roles reported by ReplicationStatus.Role.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
	// RoleStatic is a read-only daemon without a dynamic engine; it can
	// neither lead nor follow.
	RoleStatic = "static"
)

// QueryRequest asks for the (k,r)-cores at one setting. It is the body
// of PathEnumerate (all maximal cores, or the cores containing Vertex
// when set) and PathMaximum (the maximum core).
type QueryRequest struct {
	// K is the engagement threshold (>= 1).
	K int `json:"k"`
	// R is the similarity threshold (km for geo datasets, metric value
	// otherwise).
	R float64 `json:"r"`
	// Vertex, when non-nil, restricts an enumerate query to the maximal
	// cores containing this vertex (community search). Ignored by
	// PathMaximum.
	Vertex *int32 `json:"vertex,omitempty"`
	// Parallelism is the number of worker goroutines searching
	// candidate components within this one query (0 or 1 = serial).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 uses the
	// server default, and the server clamps it to its configured
	// maximum. An exceeded deadline returns a 200 with timed_out=true
	// and whatever was found, mirroring Limits semantics.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxNodes caps the total search-tree nodes of this query across
	// all its workers (0 = server default/unlimited); the server clamps
	// it to its configured maximum.
	MaxNodes int64 `json:"max_nodes,omitempty"`
}

// QueryResponse is the answer to a QueryRequest.
type QueryResponse struct {
	// Cores holds the result cores as sorted global vertex ids,
	// canonically ordered — bit-identical to the in-process Result.
	Cores [][]int32 `json:"cores"`
	// Count, MaxSize and AvgSize summarise the cores (Result.Summarize).
	Count   int     `json:"count"`
	MaxSize int     `json:"max_size"`
	AvgSize float64 `json:"avg_size"`
	// Nodes counts expanded search-tree nodes (Result.Nodes).
	Nodes int64 `json:"nodes"`
	// TimedOut reports that a limit aborted the search; Cores is then
	// incomplete.
	TimedOut bool `json:"timed_out,omitempty"`
	// ElapsedUS is the server-side search time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// WarmRequest pre-builds one (k,r) setting (PathWarm).
type WarmRequest struct {
	K int     `json:"k"`
	R float64 `json:"r"`
}

// WarmResponse acknowledges a warm.
type WarmResponse struct {
	// Prepared is the number of distinct (k,r) settings now cached.
	Prepared int `json:"prepared"`
}

// Update is one wire-format mutation (PathUpdate). Op uses the update
// stream mnemonics of internal/updates: "ae" (add edge), "re" (remove
// edge), "av" (add vertex), "sa" (set attributes).
type Update struct {
	Op string `json:"op"`
	U  int32  `json:"u,omitempty"`
	V  int32  `json:"v,omitempty"`
	// Attribute payload for "sa"; the daemon applies whichever fields
	// its attribute store kind reads.
	X       float64   `json:"x,omitempty"`
	Y       float64   `json:"y,omitempty"`
	Keys    []int32   `json:"keys,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// Op mnemonics of the wire update format.
const (
	OpAddEdge       = "ae"
	OpRemoveEdge    = "re"
	OpAddVertex     = "av"
	OpSetAttributes = "sa"
)

// ToUpdate converts a wire update to a krcore.Update.
func (u Update) ToUpdate() (krcore.Update, error) {
	switch u.Op {
	case OpAddEdge:
		return krcore.AddEdgeUpdate(u.U, u.V), nil
	case OpRemoveEdge:
		return krcore.RemoveEdgeUpdate(u.U, u.V), nil
	case OpAddVertex:
		return krcore.AddVertexUpdate(), nil
	case OpSetAttributes:
		return krcore.SetAttributesUpdate(u.U, krcore.VertexAttributes{
			X: u.X, Y: u.Y, Keys: u.Keys, Weights: u.Weights,
		}), nil
	default:
		return krcore.Update{}, fmt.Errorf("api: unknown update op %q", u.Op)
	}
}

// FromUpdate converts a krcore.Update to its wire form.
func FromUpdate(up krcore.Update) (Update, error) {
	switch up.Op {
	case krcore.OpAddEdge:
		return Update{Op: OpAddEdge, U: up.U, V: up.V}, nil
	case krcore.OpRemoveEdge:
		return Update{Op: OpRemoveEdge, U: up.U, V: up.V}, nil
	case krcore.OpAddVertex:
		return Update{Op: OpAddVertex}, nil
	case krcore.OpSetAttributes:
		return Update{
			Op: OpSetAttributes, U: up.U,
			X: up.Attrs.X, Y: up.Attrs.Y,
			Keys: up.Attrs.Keys, Weights: up.Attrs.Weights,
		}, nil
	default:
		return Update{}, fmt.Errorf("api: cannot serialise op %v", up.Op)
	}
}

// UpdateRequest applies one atomic batch of updates through
// DynamicEngine.ApplyBatch: either every update commits as one new
// snapshot or none does.
type UpdateRequest struct {
	Updates []Update `json:"updates"`
}

// UpdateResponse acknowledges a committed batch.
type UpdateResponse struct {
	// Applied is the number of operations in the committed batch.
	Applied int `json:"applied"`
	// Version is the engine's snapshot version after the commit.
	Version int64 `json:"version"`
	// N and M are the vertex and undirected-edge counts after the
	// commit.
	N int `json:"n"`
	M int `json:"m"`
}

// HealthResponse is the body of PathHealth.
type HealthResponse struct {
	Status string `json:"status"` // "ok"
}

// ReplicationStatus is the body of PathReplication.
type ReplicationStatus struct {
	// Role is RoleLeader, RoleFollower or RoleStatic.
	Role string `json:"role"`
	// Leader is the leader base URL a follower replicates from (empty on
	// leaders and static nodes).
	Leader string `json:"leader,omitempty"`
	// Kind is the node's attribute-store kind ("geo", "keywords",
	// "weighted-keywords") — a follower opens its local journal with
	// the leader's kind before bootstrapping.
	Kind string `json:"kind,omitempty"`
	// AppliedOffset is the engine's journal offset: the count of
	// operations folded into the serving state.
	AppliedOffset int64 `json:"applied_offset"`
	// JournalBase and JournalEnd bound the replayable journal tail
	// [base, end); offsets below base have been compacted away. Zero on
	// nodes running without a journal.
	JournalBase int64 `json:"journal_base"`
	JournalEnd  int64 `json:"journal_end"`
	// LagOps is the follower's last observed distance behind its leader
	// (leader end minus applied offset); 0 when caught up or leading.
	LagOps int64 `json:"lag_ops"`
}

// PromoteResponse acknowledges a PathPromote.
type PromoteResponse struct {
	// Role after the promotion: RoleLeader.
	Role string `json:"role"`
	// AppliedOffset is the promoted node's journal offset — writes
	// continue the same absolute numbering.
	AppliedOffset int64 `json:"applied_offset"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
	// Leader, set on the 503 a read-only follower answers to a write,
	// is the leader base URL the caller should retry against.
	Leader string `json:"leader,omitempty"`
}
