// Replication endpoints: snapshot shipping, journal streaming, role
// reporting and failover promotion.
//
// The protocol is deliberately small. A follower bootstraps by
// downloading GET /v1/snapshot (the engine's krsnap image, which
// embeds the journal offset it was taken at), then tails
// GET /v1/journal?from=<offset> — a long-poll over the committed
// journal in the internal/updates text wire format, addressed by
// ABSOLUTE operation offset so compactions on the leader are invisible
// to the stream. A follower that falls behind a compaction gets 410
// Gone and starts over from the snapshot. Writes on a read-only
// follower answer 503 with the leader's URL in the error body;
// POST /v1/promote flips the node writable during failover.
package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"krcore"
	"krcore/api"
	"krcore/internal/attr"
	"krcore/internal/updates"
)

// TailSource is the committed-journal surface behind GET PathJournal;
// *updates.Journal implements it. Offsets are absolute operation
// counts since the journal's creation, immune to compaction: ReadFrom
// below the compacted base fails with updates.ErrCompacted rather
// than serving repositioned bytes.
type TailSource interface {
	Kind() attr.Kind
	Base() int64
	End() int64
	ReadFrom(from int64, max int) (ops []krcore.Update, end int64, err error)
	WaitFrom(ctx context.Context, from int64, wait time.Duration) (end int64)
}

// offsetter is the optional applied-offset surface of a backend;
// krcore.DynamicEngine implements it (its journal offset is the count
// of operations folded into the serving state).
type offsetter interface{ JournalOffset() int64 }

// attributeKinder is the optional attribute-kind surface of a backend;
// both engine flavours implement it.
type attributeKinder interface{ AttributeKind() string }

// maxJournalBatch caps the operations returned by one PathJournal
// response, bounding response size; the follower simply polls again
// (HeaderEnd tells it there is more).
const maxJournalBatch = 8192

// Role reports the node's replication role: RoleStatic without a
// dynamic engine, RoleFollower while writes are gated to a leader,
// RoleLeader otherwise.
func (s *Server) Role() string {
	switch {
	case s.updater == nil:
		return api.RoleStatic
	case s.readOnly.Load():
		return api.RoleFollower
	default:
		return api.RoleLeader
	}
}

// appliedOffset reports the backend's journal offset when it has one.
func (s *Server) appliedOffset() (int64, bool) {
	if o, ok := s.backend.(offsetter); ok {
		return o.JournalOffset(), true
	}
	return 0, false
}

// handleSnapshot streams the engine's current snapshot. The krsnap
// image embeds the authoritative journal offset; HeaderOffset carries
// the engine's offset read just before the capture as an advisory
// lower bound.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Snapshot encoding streams a full graph: it occupies a search
	// slot so a bootstrap storm cannot starve queries.
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	w.Header().Set("Content-Type", "application/octet-stream")
	if ak, ok := s.backend.(attributeKinder); ok {
		w.Header().Set(api.HeaderKind, ak.AttributeKind())
	}
	if off, ok := s.appliedOffset(); ok {
		w.Header().Set(api.HeaderOffset, strconv.FormatInt(off, 10))
	}
	if err := s.cfg.Snapshot(w); err != nil {
		// The snapshot encoder only fails on its writer, i.e. the
		// transport: the 200 is committed, so count it like any other
		// mid-body failure.
		s.writeFails.With("disconnect").Inc()
	}
}

// handleJournal serves the committed journal tail from an absolute
// operation offset. Query parameters: from (required, >= 0), wait_ms
// (long-poll up to that long when the offset is at the end, clamped to
// MaxTimeout), max (cap on returned operations, clamped to
// maxJournalBatch). The response body is the internal/updates text
// format; HeaderEnd is the offset to poll from next. Long-polls hold
// no admission slot — they are memory reads that mostly sleep, and
// letting them queue would let idle followers starve searches.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil || from < 0 {
		s.fail(w, http.StatusBadRequest, "journal: bad from offset %q", q.Get("from"))
		return
	}
	maxOps := maxJournalBatch
	if v := q.Get("max"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 0 {
			s.fail(w, http.StatusBadRequest, "journal: bad max %q", v)
			return
		}
		if m > 0 && m < maxOps {
			maxOps = m
		}
	}
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.fail(w, http.StatusBadRequest, "journal: bad wait_ms %q", v)
			return
		}
		if maxMS := s.cfg.MaxTimeout.Milliseconds(); ms > maxMS {
			ms = maxMS
		}
		if ms > 0 {
			s.cfg.Tail.WaitFrom(r.Context(), from, time.Duration(ms)*time.Millisecond)
		}
	}
	ops, end, err := s.cfg.Tail.ReadFrom(from, maxOps)
	switch {
	case errors.Is(err, updates.ErrCompacted):
		// The operations below the compaction base are gone for good:
		// 410 tells the follower to re-bootstrap from PathSnapshot
		// instead of retrying.
		s.fail(w, http.StatusGone, "%v", err)
		return
	case err != nil:
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	kind := s.cfg.Tail.Kind()
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set(api.HeaderKind, kind.String())
	h.Set(api.HeaderEnd, strconv.FormatInt(end, 10))
	if err := updates.Write(w, ops, kind); err != nil {
		// Journalled operations always serialise; a failure here is the
		// follower hanging up mid-body.
		s.writeFails.With("disconnect").Inc()
	}
}

// handleReplication reports the node's role and offsets.
func (s *Server) handleReplication(w http.ResponseWriter, _ *http.Request) {
	st := api.ReplicationStatus{Role: s.Role()}
	if st.Role == api.RoleFollower {
		st.Leader = s.cfg.LeaderURL
	}
	if ak, ok := s.backend.(attributeKinder); ok {
		st.Kind = ak.AttributeKind()
	}
	if off, ok := s.appliedOffset(); ok {
		st.AppliedOffset = off
	}
	if t := s.cfg.Tail; t != nil {
		st.JournalBase, st.JournalEnd = t.Base(), t.End()
	}
	if s.cfg.Lag != nil {
		st.LagOps = s.cfg.Lag()
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handlePromote flips a read-only follower writable (failover).
// Idempotent: promoting a node that already accepts writes is a 200.
// The OnPromote hook runs exactly once, before the first write can be
// admitted, so a follower can stop tailing its old leader cleanly.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.readOnly.Load() {
		if s.cfg.OnPromote != nil {
			if err := s.cfg.OnPromote(r.Context()); err != nil {
				s.fail(w, http.StatusInternalServerError, "promote: %v", err)
				return
			}
		}
		s.readOnly.Store(false)
	}
	off, _ := s.appliedOffset()
	s.writeJSON(w, http.StatusOK, api.PromoteResponse{
		Role:          api.RoleLeader,
		AppliedOffset: off,
	})
}

// redirectWrite answers a write on a read-only follower: 503 with the
// leader's URL in the error body. Counted on its own series — neither
// a client nor a server error, so a fleet soak can still gate on zero
// server_errors while routers retry against the leader.
func (s *Server) redirectWrite(w http.ResponseWriter) {
	s.redirected.Inc()
	s.writeJSON(w, http.StatusServiceUnavailable, api.Error{
		Error:  "read-only follower: writes go to the leader",
		Leader: s.cfg.LeaderURL,
	})
}

// initReplicationMetrics registers the replication series; gaugeOf is
// initMetrics' pull-gauge helper.
func (s *Server) initReplicationMetrics(gaugeOf func(name, help string, get func() int64)) {
	s.redirected = s.reg.Counter("krcored_write_redirects_total", "writes answered 503 with a leader redirect (read-only follower)")
	gaugeOf("krcored_replication_writable", "1 when this node accepts writes, 0 on a read-only follower", func() int64 {
		if s.readOnly.Load() {
			return 0
		}
		return 1
	})
	if _, ok := s.backend.(offsetter); ok {
		gaugeOf("krcored_replication_applied_offset", "journal offset folded into the serving state", func() int64 {
			off, _ := s.appliedOffset()
			return off
		})
	}
	if s.cfg.Lag != nil {
		gaugeOf("krcored_replication_lag_ops", "follower operations behind the leader at its last poll", s.cfg.Lag)
	}
	if s.cfg.Tail != nil {
		gaugeOf("krcored_journal_base", "absolute offset of the first replayable journal operation", s.cfg.Tail.Base)
		gaugeOf("krcored_journal_end", "absolute offset past the last committed journal operation", s.cfg.Tail.End)
	}
}
