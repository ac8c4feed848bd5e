package federation

import (
	"context"
	"sync"
	"testing"

	"themecomm/internal/obs"
)

// sliceRecorder collects observations; the federation injects it into every
// member engine.
type sliceRecorder struct {
	mu  sync.Mutex
	obs []obs.QueryObservation
	ids []string
}

func (r *sliceRecorder) RecordUpdate(obs.UpdateObservation) {}

func (r *sliceRecorder) RecordQuery(ctx context.Context, o obs.QueryObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, o)
	r.ids = append(r.ids, obs.RequestIDFrom(ctx))
}

// TestRecorderPassThrough checks Options.Recorder reaches every member
// engine: one QueryAll produces one observation per network, each
// labeled with its tenant name and carrying the caller's request ID.
func TestRecorderPassThrough(t *testing.T) {
	rec := &sliceRecorder{}
	f, _ := newTestFederation(t, Options{Recorder: rec})
	ctx := obs.WithRequestID(context.Background(), "fed-req-1")
	if _, err := f.QueryAll(ctx, Constant(nil), 0.2); err != nil {
		t.Fatalf("QueryAll: %v", err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.obs) != f.NumNetworks() {
		t.Fatalf("observations = %d, want one per network (%d)", len(rec.obs), f.NumNetworks())
	}
	seen := make(map[string]bool)
	for i, o := range rec.obs {
		if o.Network == "" {
			t.Fatalf("observation %d has no network label: %+v", i, o)
		}
		seen[o.Network] = true
		if rec.ids[i] != "fed-req-1" {
			t.Fatalf("observation %d carries request ID %q, want fed-req-1", i, rec.ids[i])
		}
	}
	if len(seen) != f.NumNetworks() {
		t.Fatalf("networks observed = %v, want all %d tenants", seen, f.NumNetworks())
	}
}
