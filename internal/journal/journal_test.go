package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func readAll(t *testing.T, j *Journal, from uint64) []Record {
	t.Helper()
	r := j.Range(from)
	defer r.Close()
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, rec)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	payloads := [][]byte{[]byte("TCDELTA 1\nAV 1\n"), []byte("TCDELTA 1\nT 0 1 2\n"), {}}
	for i, p := range payloads {
		seq, err := j.Append("default", uint64(i+10), p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d assigned seq %d, want %d", i, seq, i+1)
		}
	}
	if got := j.DurableSeq(); got != 3 {
		t.Fatalf("DurableSeq = %d, want 3", got)
	}
	recs := readAll(t, j, 0)
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Epoch != uint64(i+10) || rec.Network != "default" ||
			!bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	// Range(from) resumes mid-stream.
	if tail := readAll(t, j, 2); len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("Range(2) = %+v, want just seq 3", tail)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := j.Append("net", 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2 := mustOpen(t, dir, Options{})
	if got := j2.DurableSeq(); got != 5 {
		t.Fatalf("DurableSeq after reopen = %d, want 5", got)
	}
	seq, err := j2.Append("net", 2, []byte("y"))
	if err != nil || seq != 6 {
		t.Fatalf("Append after reopen = (%d, %v), want (6, nil)", seq, err)
	}
	if recs := readAll(t, j2, 0); len(recs) != 6 {
		t.Fatalf("read %d records after reopen, want 6", len(recs))
	}
}

// An open journal locks its directory: a second Open — in this very process,
// where flock conflicts between two open file descriptions — fails with an
// error naming the directory, appends nothing, and succeeds once the first
// journal is closed.
func TestOpenLocksTheDirectory(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("no flock on " + runtime.GOOS)
	}
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if _, err := j.Append("net", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if second, err := Open(dir, Options{}); err == nil {
		second.Close()
		t.Fatal("a second Open of a locked journal succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("the lock error %q does not name %s", err, dir)
	}
	j.Close()
	j2 := mustOpen(t, dir, Options{})
	if seq, err := j2.Append("net", 2, []byte("y")); err != nil || seq != 2 {
		t.Fatalf("Append after the lock was released = (%d, %v), want (2, nil)", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 128})
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := j.Append("net", 1, []byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	recs := readAll(t, j, 0)
	if len(recs) != n {
		t.Fatalf("read %d records across segments, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("payload-%03d", i); string(rec.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, rec.Payload, want)
		}
	}
	// Reopen across segments recovers the same state.
	j.Close()
	j2 := mustOpen(t, dir, Options{SegmentBytes: 128})
	if got := j2.DurableSeq(); got != n {
		t.Fatalf("DurableSeq after multi-segment reopen = %d, want %d", got, n)
	}
}

func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if _, err := j.Append("net", 1, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	segs, err := scanSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("scanSegments = %v, %v", segs, err)
	}
	// Chop off the middle of the last record: a torn final write.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if got := j2.DurableSeq(); got != 3 {
		t.Fatalf("DurableSeq after torn tail = %d, want 3", got)
	}
	// The journal keeps going: the lost seq is reassigned.
	seq, err := j2.Append("net", 2, []byte("again"))
	if err != nil || seq != 4 {
		t.Fatalf("Append after recovery = (%d, %v), want (4, nil)", seq, err)
	}
	recs := readAll(t, j2, 0)
	if len(recs) != 4 || string(recs[3].Payload) != "again" {
		t.Fatalf("post-recovery records = %+v", recs)
	}
}

func TestCorruptionInNonFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if _, err := j.Append("net", 1, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := scanSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v (%v)", segs, err)
	}
	// Flip a byte inside the FIRST segment: not a torn tail, real damage.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a journal with mid-stream corruption")
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	seqs := make(chan uint64, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := j.Append("net", 1, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				seqs <- seq
			}
		}(w)
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("sequence %d assigned twice", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("%d unique seqs, want %d", len(seen), writers*each)
	}
	if got := j.DurableSeq(); got != writers*each {
		t.Fatalf("DurableSeq = %d, want %d", got, writers*each)
	}
	st := j.Stats()
	if st.Appends != writers*each {
		t.Fatalf("Stats.Appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Fsyncs > st.Appends {
		t.Fatalf("Stats.Fsyncs = %d exceeds appends %d", st.Fsyncs, st.Appends)
	}
	if recs := readAll(t, j, 0); len(recs) != writers*each {
		t.Fatalf("read %d records, want %d", len(recs), writers*each)
	}
}

func TestWaitFor(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	if j.WaitFor(1, 10*time.Millisecond) {
		t.Fatal("WaitFor(1) succeeded on an empty journal")
	}
	done := make(chan bool, 1)
	go func() { done <- j.WaitFor(1, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	if _, err := j.Append("net", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitFor returned false after the seq became durable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not wake after append")
	}
	// Close wakes blocked waiters.
	go func() { done <- j.WaitFor(99, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	j.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("WaitFor(99) reported success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not wake on Close")
	}
}

func TestAppendLimits(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	if _, err := j.Append(string(make([]byte, maxNetworkLen+1)), 1, nil); err == nil {
		t.Fatal("oversized network name accepted")
	}
	if _, err := j.Append("net", 1, make([]byte, maxPayloadLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	j.Close()
	if _, err := j.Append("net", 1, []byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestTailReaderFollowsLiveAppends(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{SegmentBytes: 96})
	r := j.Range(0)
	defer r.Close()
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty journal = %v, want io.EOF", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := j.Append("net", 1, []byte(fmt.Sprintf("live-%02d", i))); err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next after append %d: %v", i, err)
		}
		if want := fmt.Sprintf("live-%02d", i); string(rec.Payload) != want {
			t.Fatalf("tail read %q, want %q", rec.Payload, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next past the tail = %v, want io.EOF", err)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("journal-%020d.tcjrnl", 1))
	if err := os.WriteFile(path, []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a segment with bad magic")
	}
}
