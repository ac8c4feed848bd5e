package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"themecomm/internal/delta"
	"themecomm/internal/graph"
)

// This file implements incremental index maintenance over HTTP:
//
//	POST /api/v1/update             apply a network delta to the default network
//	POST /api/v1/{network}/update   apply a network delta to one tenant
//
// The request body is a JSON delta. Every update takes the one write route,
// replication.Primary.Apply: the delta is appended to the journal, then the
// affected shards are rebuilt and swapped in memory while queries keep
// flowing (engine.ApplyDeltaInMemory) and only the updated network's cache
// namespace is purged; a checkpoint persists it later, the stamped network
// file first, then the index manifest. A 200 means the update is durable in
// the journal. Updating requires the network to be a member of the server's
// primary, which every network holding its database network is (tcserver
// -net, or a sibling <name>.dbnet in the federation's networks directory);
// any other network answers 409.

// UpdateTransaction is one transaction of an update request. Items are names
// resolved through the network's dictionary (unknown names are interned, so
// updates may introduce new items) or numeric identifiers.
type UpdateTransaction struct {
	Vertex int      `json:"vertex"`
	Items  []string `json:"items"`
}

// UpdateRequest is the payload of POST /api/v1/update: a network delta.
// Edges are [u, v] vertex pairs. Changes apply in declaration order:
// vertices are added first, then transactions removed, then vertices
// tombstoned, then edges removed, then edges added, then transactions
// appended — so one request can tombstone a vertex and repopulate it.
type UpdateRequest struct {
	AddVertices int `json:"addVertices,omitempty"`
	// RemoveVertices tombstones vertices: incident edges are dropped and the
	// vertex database emptied, but the id stays valid (ids are positional and
	// never renumber).
	RemoveVertices     []int               `json:"removeVertices,omitempty"`
	AddEdges           [][2]int            `json:"addEdges,omitempty"`
	RemoveEdges        [][2]int            `json:"removeEdges,omitempty"`
	AddTransactions    []UpdateTransaction `json:"addTransactions,omitempty"`
	RemoveTransactions []UpdateTransaction `json:"removeTransactions,omitempty"`
}

// UpdateResponse reports an applied delta: which top-level items were
// affected, what happened to their shards, and the index epoch the update
// installed.
type UpdateResponse struct {
	// Network is the updated network.
	Network string `json:"network,omitempty"`
	// AffectedItems lists the top-level items whose shards were rebuilt,
	// rendered through the dictionary.
	AffectedItems []string `json:"affectedItems"`
	// ReplacedShards, AddedShards and RemovedShards count the shard swaps
	// the delta caused; shards outside the affected set were untouched.
	ReplacedShards int `json:"replacedShards"`
	AddedShards    int `json:"addedShards"`
	RemovedShards  int `json:"removedShards"`
	// IndexEpoch is the engine's index epoch after the swap.
	IndexEpoch uint64 `json:"indexEpoch"`
	// JournalSeq is the journal sequence number durably assigned to the
	// delta; every 200 carries one.
	JournalSeq uint64 `json:"journalSeq"`
	// UpdateMicros is the wall time of the whole update as the server ran
	// it: the journal append with its fsync and the in-memory apply. The
	// checkpoint that persists the update runs later, outside it.
	UpdateMicros int64 `json:"updateMicros"`
}

// parseUpdate converts the JSON request into a delta, resolving item names
// through the tenant's dictionary without changing it.
func (t *tenant) parseUpdate(req *UpdateRequest) (*delta.Delta, error) {
	d := &delta.Delta{AddVertices: req.AddVertices}
	if d.AddVertices < 0 {
		return nil, fmt.Errorf("negative addVertices %d", d.AddVertices)
	}
	parseEdges := func(edges [][2]int, what string) ([]graph.Edge, error) {
		var out []graph.Edge
		for _, e := range edges {
			edge, err := graph.CheckedEdge(e[0], e[1])
			if err != nil {
				return nil, fmt.Errorf("%s %w", what, err)
			}
			out = append(out, edge)
		}
		return out, nil
	}
	var err error
	if d.AddEdges, err = parseEdges(req.AddEdges, "added"); err != nil {
		return nil, err
	}
	if d.RemoveEdges, err = parseEdges(req.RemoveEdges, "removed"); err != nil {
		return nil, err
	}
	for i, v := range req.RemoveVertices {
		id, err := graph.Vertex(v)
		if err != nil {
			return nil, fmt.Errorf("removed vertex %d: %w", i, err)
		}
		d.RemoveVertices = append(d.RemoveVertices, id)
	}
	// Structural checks first; the emptiness check counts the raw request.
	checkTxs := func(txs []UpdateTransaction, what string) error {
		for i, tx := range txs {
			if _, err := graph.Vertex(tx.Vertex); err != nil {
				return fmt.Errorf("%s %d: %w", what, i, err)
			}
			if len(tx.Items) == 0 {
				return fmt.Errorf("%s %d: empty item list", what, i)
			}
		}
		return nil
	}
	if err := checkTxs(req.AddTransactions, "transaction"); err != nil {
		return nil, err
	}
	if err := checkTxs(req.RemoveTransactions, "removed transaction"); err != nil {
		return nil, err
	}
	if d.AddVertices == 0 && len(d.RemoveVertices) == 0 && len(d.AddEdges) == 0 &&
		len(d.RemoveEdges) == 0 && len(req.AddTransactions) == 0 && len(req.RemoveTransactions) == 0 {
		return nil, fmt.Errorf("empty delta: nothing to apply")
	}
	resolveTxs := func(txs []UpdateTransaction, what string) ([]delta.VertexTransaction, error) {
		out := make([]delta.VertexTransaction, 0, len(txs))
		for i, tx := range txs {
			vt, err := delta.ResolveTransaction(graph.VertexID(tx.Vertex), tx.Items, t.dict)
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", what, i, err)
			}
			out = append(out, vt)
		}
		return out, nil
	}
	if d.AddTransactions, err = resolveTxs(req.AddTransactions, "transaction"); err != nil {
		return nil, err
	}
	if d.RemoveTransactions, err = resolveTxs(req.RemoveTransactions, "removed transaction"); err != nil {
		return nil, err
	}
	if len(d.AddTransactions) == 0 {
		d.AddTransactions = nil
	}
	if len(d.RemoveTransactions) == 0 {
		d.RemoveTransactions = nil
	}
	return d, nil
}

func (s *Server) serveUpdate(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.readOnly {
		// Replica mode: this server replays the primary's journal and must
		// not accept writes of its own. The Location header names where the
		// same request would succeed.
		if s.primaryURL != "" {
			w.Header().Set("Location", s.primaryURL+r.URL.Path)
		}
		writeError(w, r, http.StatusForbidden, "this server is a read-only replica; send updates to the primary")
		return
	}
	if !t.writable {
		writeError(w, r, http.StatusConflict,
			"updates are disabled: the server does not hold this network's database network (start tcserver with -net, or put a sibling <name>.dbnet next to the index)")
		return
	}
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid update request: %v", err))
		return
	}
	d, err := t.parseUpdate(&req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	ar, err := s.primary.Apply(t.name, d)
	took := time.Since(start)
	if err != nil {
		// Nothing was acknowledged. Validation happens inside the member's
		// update lock (validating here would race a concurrent update
		// mutating the network); the sentinel distinguishes a malformed
		// delta from a server failure, such as a failed journal append.
		if errors.Is(err, delta.ErrInvalid) {
			writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	res := ar.Result
	resp := UpdateResponse{
		Network:       t.name,
		AffectedItems: t.itemNames(res.Affected),
		IndexEpoch:    res.Epoch,
		JournalSeq:    ar.Seq,
		UpdateMicros:  took.Microseconds(),
	}
	if res.Report != nil {
		resp.ReplacedShards = len(res.Report.Replaced)
		resp.AddedShards = len(res.Report.Added)
		resp.RemovedShards = len(res.Report.Removed)
	}
	writeJSON(w, http.StatusOK, resp)
}
