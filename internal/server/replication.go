package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"themecomm/internal/journal"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
)

// This file is the HTTP surface of replication: GET /api/v1/journal serves
// the primary's delta journal as an NDJSON feed replicas tail, and the
// tc_journal_* / tc_replica_* metric collectors expose the role state to
// Prometheus. The feed is a long poll: the server streams every durable
// record after the client's cursor, emits a "head" frame marking the durable
// head, and — when ?wait is given — blocks for more records before answering
// EOF, so a caught-up replica sits in one cheap request instead of busy
// polling.

// maxJournalWait caps the ?wait long-poll parameter.
const maxJournalWait = 60 * time.Second

// journalWaitSlice bounds one blocking WaitFor so client disconnects are
// noticed between slices.
const journalWaitSlice = time.Second

// JournalRecordFrame is one "record" line of the GET /api/v1/journal feed:
// a journal record with its TCDELTA payload base64-encoded (the standard
// encoding/json rendering of bytes).
type JournalRecordFrame struct {
	Type       string `json:"type"` // "record"
	Seq        uint64 `json:"seq"`
	Epoch      uint64 `json:"epoch"`
	UnixMicros int64  `json:"unixMicros"`
	Network    string `json:"network"`
	Payload    []byte `json:"payload"`
}

// JournalHeadFrame is a "head" line of the GET /api/v1/journal feed: the
// journal's durable head at emission time. It follows the batch of record
// frames (so a tailer knows it is caught up and how far behind it started)
// and closes every long-poll round.
type JournalHeadFrame struct {
	Type string `json:"type"` // "head"
	Seq  uint64 `json:"seq"`
}

// handleJournal serves GET /api/v1/journal?from=<seq>&wait=<seconds>: every
// durable record with sequence number strictly greater than from, then a
// head frame. With wait the response long-polls: after draining the tail the
// server blocks (up to the capped wait) for more records and keeps
// streaming, closing with a final head frame when the wait expires.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.primary == nil {
		writeError(w, r, http.StatusNotFound, "this server does not serve a journal (only a replication primary does)")
		return
	}
	from := uint64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid from %q", v))
			return
		}
		from = parsed
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid wait %q", v))
			return
		}
		wait = time.Duration(secs * float64(time.Second))
		if wait > maxJournalWait {
			wait = maxJournalWait
		}
	}

	j := s.primary.Journal()
	rd := j.Range(from)
	defer rd.Close()

	writeLine := ndjsonWriter(w)

	deadline := time.Now().Add(wait)
	next := from + 1
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			writeLine(JournalHeadFrame{Type: "head", Seq: j.DurableSeq()})
			// Long-poll for more in bounded slices, so a vanished client is
			// noticed within a slice rather than held for the full wait.
			waited := false
			for time.Now().Before(deadline) && r.Context().Err() == nil {
				slice := time.Until(deadline)
				if slice > journalWaitSlice {
					slice = journalWaitSlice
				}
				if j.WaitFor(next, slice) {
					waited = true
					break
				}
			}
			if !waited {
				return
			}
			continue
		}
		if err != nil {
			writeLine(streamError(r, err))
			return
		}
		writeLine(JournalRecordFrame{
			Type: "record", Seq: rec.Seq, Epoch: rec.Epoch,
			UnixMicros: rec.UnixMicros, Network: rec.Network, Payload: rec.Payload,
		})
		next = rec.Seq + 1
	}
}

// ndjsonWriter commits a 200 NDJSON response and returns its line writer:
// each call encodes one value as a line and flushes it, so the client sees
// every line as soon as it is produced.
func ndjsonWriter(w http.ResponseWriter) func(v any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	return func(v any) {
		_ = enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// registerReplicationCollectors exposes the journal and replication-lag
// counters as scrape-time collector families, sampled from the journal and
// the role's Status at render like every other stats surface.
func (s *Server) registerReplicationCollectors() {
	if s.replStatus == nil {
		return
	}
	reg := s.obsv.Registry()

	if s.primary != nil {
		j := s.primary.Journal()
		journalStat := func(name, help, typ string, v func(st journal.Stats) float64) {
			reg.CollectFunc(name, help, typ, nil, func() []obs.Sample {
				return []obs.Sample{{Value: v(j.Stats())}}
			})
		}
		journalStat("tc_journal_appends_total",
			"Records appended to the delta journal.", "counter",
			func(st journal.Stats) float64 { return float64(st.Appends) })
		journalStat("tc_journal_batches_total",
			"Group-commit batches flushed to the delta journal.", "counter",
			func(st journal.Stats) float64 { return float64(st.Batches) })
		journalStat("tc_journal_fsyncs_total",
			"Fsync calls issued by the delta journal.", "counter",
			func(st journal.Stats) float64 { return float64(st.Fsyncs) })
		journalStat("tc_journal_bytes_total",
			"Record bytes written to the delta journal.", "counter",
			func(st journal.Stats) float64 { return float64(st.Bytes) })
		journalStat("tc_journal_segments",
			"Delta journal segment files on disk.", "gauge",
			func(st journal.Stats) float64 { return float64(st.Segments) })
		journalStat("tc_journal_seq",
			"Highest durable journal sequence number.", "gauge",
			func(st journal.Stats) float64 { return float64(st.LastSeq) })
	}

	replGauge := func(name, help string, v func(replication.Status) float64) {
		reg.CollectFunc(name, help, "gauge", nil, func() []obs.Sample {
			return []obs.Sample{{Value: v(s.replStatus())}}
		})
	}
	replGauge("tc_replica_lag_records",
		"Journal records the replica still has to apply to reach the primary's head (0 on a primary).",
		func(st replication.Status) float64 { return float64(st.LagRecords) })
	replGauge("tc_replica_lag_seconds",
		"Age of the replication lag: how long ago the primary appended the newest applied record (0 when caught up).",
		func(st replication.Status) float64 { return st.LagSeconds })

	reg.CollectFunc("tc_replication_applied_seq",
		"Highest journal sequence number applied to the member's serving state.",
		"gauge", []string{"network"}, func() []obs.Sample {
			return s.memberSamples(func(ns replication.NetworkStatus) float64 { return float64(ns.AppliedSeq) })
		})
	reg.CollectFunc("tc_replication_flushed_seq",
		"Highest journal sequence number made durable by a checkpoint.",
		"gauge", []string{"network"}, func() []obs.Sample {
			return s.memberSamples(func(ns replication.NetworkStatus) float64 { return float64(ns.FlushedSeq) })
		})
}

// memberSamples renders one labeled sample per replicated member, in name
// order so scrapes are stable.
func (s *Server) memberSamples(v func(replication.NetworkStatus) float64) []obs.Sample {
	st := s.replStatus()
	names := make([]string, 0, len(st.Networks))
	for name := range st.Networks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.Sample, 0, len(names))
	for _, name := range names {
		out = append(out, obs.Sample{Labels: []string{name}, Value: v(st.Networks[name])})
	}
	return out
}
