package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/graph"
	"themecomm/internal/itemset"
	"themecomm/internal/journal"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// writeNetwork writes the BK analogue at scale 0.1 as dir/bk.index plus its
// sibling dir/bk.dbnet and returns vertex 0's first transaction as item
// names.
func writeNetwork(t *testing.T, dir string) (tx0 string) {
	t.Helper()
	d, err := gen.ByName("BK", gen.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tctree.Build(d.Network, tctree.BuildOptions{}).WriteShardedAs(filepath.Join(dir, "bk.index"), tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	if err := dbnet.WriteFileAtomic(filepath.Join(dir, "bk.dbnet"), d.Network, d.Dictionary); err != nil {
		t.Fatal(err)
	}
	return strings.Join(d.Dictionary.Names(d.Network.Database(0).Transactions()[0]), ",")
}

// snapshot reads every file under dir but the journal's, keyed by its path
// relative to dir. Journal records carry their append time: journalRecords
// compares them.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() && e.Name() == "journal" {
			return filepath.SkipDir
		}
		if err != nil || e.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// copyDir copies the files of a snapshot into a new temporary directory.
func copyDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for rel, b := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// journalRecords reads the records of the journal in dir/journal, their
// append times zeroed.
func journalRecords(t *testing.T, dir string) []journal.Record {
	t.Helper()
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rd := j.Range(0)
	defer rd.Close()
	var recs []journal.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.UnixMicros = 0
		recs = append(recs, rec)
	}
}

// serve starts a writable server over dir's bk pair the way tcserver -tree
// dir/bk.index -net dir/bk.dbnet does. Closing it checkpoints the pair.
func serve(t *testing.T, dir string) *server.Local {
	t.Helper()
	l, err := server.ServeLocal(filepath.Join(dir, "bk.index"), filepath.Join(dir, "bk.dbnet"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(context.Background()) })
	return l
}

// closeLocal closes l, failing the test on a failed checkpoint.
func closeLocal(t *testing.T, l *server.Local) {
	t.Helper()
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// tcupdate runs the command and returns what it printed.
func tcupdate(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tcupdate %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// local prefixes args with the flags that update dir's bk pair in process.
func local(dir string, args ...string) []string {
	return append([]string{"-net", filepath.Join(dir, "bk.dbnet"), "-index", filepath.Join(dir, "bk.index")}, args...)
}

var micros = regexp.MustCompile(`[0-9]+µs`)

func TestLocalUpdateMatchesServer(t *testing.T) {
	src := t.TempDir()
	tx0 := writeNetwork(t, src)
	seed := snapshot(t, src)
	deltaFile := filepath.Join(t.TempDir(), "named.tcdelta")
	if err := os.WriteFile(deltaFile, []byte("TCDELTA 1\nAV 1\nE+ 3 60\nT 60 coffee hangout-c1-0 500\nT- 0 "+strings.ReplaceAll(tx0, ",", " ")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		local, remote []string
	}{
		{"edges", []string{"-addedges", "3-17,4-17", "-rmedges", "0-1"}, nil},
		{"transactions by name and id", []string{"-addtx", "3:hangout-c1-0,newitem;4:1,2"}, nil},
		{"removed transaction", []string{"-rmtx", "0:" + tx0}, nil},
		{"tombstones", []string{"-rmvertices", "5,6", "-addvertices", "1", "-addedges", "5-60"}, nil},
		{"delta file with names",
			[]string{"-delta", deltaFile, "-addtx", "60:coffee,tea"},
			[]string{"-addvertices", "1", "-addedges", "3-60", "-rmtx", "0:" + tx0,
				"-addtx", "60:coffee,hangout-c1-0,500;60:coffee,tea"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.remote == nil {
				c.remote = c.local
			}
			l, r := copyDir(t, seed), copyDir(t, seed)
			got := tcupdate(t, local(l, c.local...)...)
			srv := serve(t, r)
			want := tcupdate(t, append([]string{"-server", srv.URL, "-network", "bk"}, c.remote...)...)
			closeLocal(t, srv)
			if micros.ReplaceAllString(got, "Nµs") != micros.ReplaceAllString(want, "Nµs") {
				t.Errorf("local update printed\n%s\nthe server's printed\n%s", got, want)
			}
			if !strings.HasPrefix(got, "applied delta to bk in ") {
				t.Errorf("unexpected report:\n%s", got)
			}
			lf, rf := snapshot(t, l), snapshot(t, r)
			if len(lf) != len(rf) {
				t.Errorf("local update left %d files, the server's %d", len(lf), len(rf))
			}
			for rel, b := range rf {
				if !bytes.Equal(lf[rel], b) {
					t.Errorf("%s differs between the local and the server update", rel)
				}
			}
			if bytes.Equal(lf["bk.dbnet"], seed["bk.dbnet"]) {
				t.Error("the network file was not written back")
			}
			lj, rj := journalRecords(t, l), journalRecords(t, r)
			if len(lj) != 1 || !reflect.DeepEqual(lj, rj) {
				t.Errorf("local journal %+v, the server's %+v: want one equal record", lj, rj)
			}
		})
	}
}

// An index whose base name is no network name — a directory and an index
// name with a space — updates locally under a name made valid, and leaves
// the files a server's update of the same pair leaves.
func TestLocalUpdateOfAnIndexNamedWithASpace(t *testing.T) {
	src := t.TempDir()
	writeNetwork(t, src)
	seed := snapshot(t, src)
	spaced := make(map[string][]byte)
	for rel, b := range seed {
		spaced[filepath.Join("my dir", strings.Replace(rel, "bk.", "my net.", 1))] = b
	}
	l, r := copyDir(t, spaced), copyDir(t, seed)
	dir := filepath.Join(l, "my dir")
	got := tcupdate(t, "-net", filepath.Join(dir, "my net.dbnet"), "-index", filepath.Join(dir, "my net.index"), "-addtx", "7:0")
	if !strings.HasPrefix(got, "applied delta to my_net in ") {
		t.Errorf("unexpected report:\n%s", got)
	}
	srv := serve(t, r)
	tcupdate(t, "-server", srv.URL, "-network", "bk", "-addtx", "7:0")
	closeLocal(t, srv)
	lf, rf := snapshot(t, dir), snapshot(t, r)
	if len(lf) != len(rf) {
		t.Errorf("local update left %d files, the server's %d", len(lf), len(rf))
	}
	for rel, b := range rf {
		if !bytes.Equal(lf[strings.Replace(rel, "bk.", "my net.", 1)], b) {
			t.Errorf("%s differs between the local and the server update", rel)
		}
	}
}

func TestLocalUpdateRejections(t *testing.T) {
	dir := t.TempDir()
	writeNetwork(t, dir)
	seed := snapshot(t, dir)
	cases := []struct {
		args  []string
		usage bool
		why   string
	}{
		{local(dir, "-addtx", "7:0", "-outnet", filepath.Join(dir, "next.dbnet")), true, "flag provided but not defined: -outnet"},
		{local(dir, "-addedges", "3-3"), true, `invalid edge "3-3"`},
		{[]string{"-addtx", "7:0"}, true, "usage"},
		{local(dir), false, "empty delta"},
		{[]string{"-server", "http://127.0.0.1:1", "-delta", "changes.tcdelta", "-addtx", "7:0"}, false, "-delta cannot be combined with -server"},
	}
	for _, c := range cases {
		err := run(c.args, new(bytes.Buffer))
		if err == nil || errors.Is(err, errUsage) != c.usage || !strings.Contains(err.Error(), c.why) {
			t.Errorf("tcupdate %s: error %v, want one naming %q (usage error: %v)", strings.Join(c.args, " "), err, c.why, c.usage)
		}
	}
	after := snapshot(t, dir)
	if len(after) != len(seed) {
		t.Fatalf("rejected updates left %d files, want %d", len(after), len(seed))
	}
	for rel, b := range seed {
		if !bytes.Equal(after[rel], b) {
			t.Errorf("a rejected update changed %s", rel)
		}
	}
	if recs := journalRecords(t, dir); len(recs) != 0 {
		t.Errorf("rejected updates journaled %d records", len(recs))
	}
}

// A checkpoint that cannot write the network back fails a local update:
// nothing reaches the pair's files, and the error says the update is
// journaled. The next writable open replays it before its own update, and
// its checkpoint persists both.
func TestLocalCheckpointFailureIsAnError(t *testing.T) {
	dir := t.TempDir()
	writeNetwork(t, dir)
	block := filepath.Join(dir, "bk.dbnet.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	seed := snapshot(t, dir)
	var out bytes.Buffer
	err := run(local(dir, "-addtx", "7:0"), &out)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "journaled at seq 1") ||
		!strings.Contains(err.Error(), "replayed on the next writable open") || strings.Contains(err.Error(), "not persisted") {
		t.Fatalf("update with a blocked write-back: error %v (printed %q), want a checkpoint failure of a journaled update", err, out.String())
	}
	after := snapshot(t, dir)
	for rel, b := range seed {
		if !bytes.Equal(after[rel], b) {
			t.Errorf("a failed checkpoint changed %s", rel)
		}
	}

	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if got := tcupdate(t, local(dir, "-addtx", "8:0")...); !strings.Contains(got, "journal seq:     2") {
		t.Errorf("the next update printed\n%s\nwant journal seq 2", got)
	}
	onDisk, _, err := dbnet.ReadFile(filepath.Join(dir, "bk.dbnet"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.VertexID{7, 8} {
		txs := onDisk.Database(v).Transactions()
		if !txs[len(txs)-1].Equal(itemset.New(0)) {
			t.Errorf("vertex %d's transactions %v lack the journaled update", v, txs)
		}
	}
	if seq, err := dbnet.ReadJournalSeq(filepath.Join(dir, "bk.dbnet")); err != nil || seq != 2 {
		t.Errorf("network file stamp %d (%v), want 2", seq, err)
	}
}

// Closing the local server waits for an update in flight, however long it
// takes: the process cannot exit between the network write-back and the
// index commit, and the files end up exactly as a completed update leaves
// them.
func TestLocalCloseWaitsForAnUpdate(t *testing.T) {
	src := t.TempDir()
	writeNetwork(t, src)
	seed := snapshot(t, src)
	want := copyDir(t, seed)
	srv := serve(t, want)
	tcupdate(t, "-server", srv.URL, "-network", "bk", "-addtx", "7:0")
	closeLocal(t, srv)

	dir := copyDir(t, seed)
	l, err := server.ServeLocal(filepath.Join(dir, "bk.index"), filepath.Join(dir, "bk.dbnet"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	body, w := io.Pipe()
	posted := make(chan error, 1)
	go func() {
		resp, err := http.Post(l.URL+"/api/v1/update", "application/json", body)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errors.New(resp.Status)
			}
		}
		posted <- err
	}()
	// The request is in flight until its body ends. The write returning
	// does not prove the server has accepted the connection, so wait until
	// its handler runs: the scrape counts itself, so two in flight means
	// the update is the other one.
	if _, err := io.WriteString(w, `{"addTransactions":[`); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, l.URL, 2)
	closed := make(chan struct{})
	go func() { l.Close(context.Background()); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an update was in flight")
	case <-time.After(200 * time.Millisecond):
	}
	io.WriteString(w, `{"vertex":7,"items":["0"]}]}`)
	w.Close()
	if err := <-posted; err != nil {
		t.Fatalf("the update in flight failed: %v", err)
	}
	<-closed
	got, wantFiles := snapshot(t, dir), snapshot(t, want)
	for rel, b := range wantFiles {
		if !bytes.Equal(got[rel], b) {
			t.Errorf("%s differs from a completed update's", rel)
		}
	}
}

// waitInFlight waits, for at most 5 s, until the server at url reports at
// least n requests in flight on /metrics.
func waitInFlight(t *testing.T, url string, n float64) {
	t.Helper()
	inFlight := regexp.MustCompile(`(?m)^tc_http_requests_in_flight (\S+)$`)
	var last string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m := inFlight.FindSubmatch(body)
		if m == nil {
			t.Fatalf("/metrics (HTTP %d) has no tc_http_requests_in_flight:\n%s", resp.StatusCode, body)
		}
		last = string(m[1])
		if v, err := strconv.ParseFloat(last, 64); err == nil && v >= n {
			return
		}
	}
	t.Fatalf("the server reports %s requests in flight after 5 s, want at least %v", last, n)
}

// An index given as the working directory is named after that directory.
func TestLocalUpdateInTheIndexDirectory(t *testing.T) {
	dir := t.TempDir()
	writeNetwork(t, dir)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(dir, "bk.index")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if got := tcupdate(t, "-index", ".", "-net", "../bk.dbnet", "-addtx", "7:0"); !strings.HasPrefix(got, "applied delta to bk in ") {
		t.Errorf("unexpected report:\n%s", got)
	}
	// The journal is beside the index, not inside it.
	if recs := journalRecords(t, dir); len(recs) != 1 || recs[0].Network != "bk" {
		t.Errorf("journal beside the index holds %+v, want one record of bk", recs)
	}
	if _, err := os.Stat("journal"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a journal in the index directory: %v", err)
	}
}
