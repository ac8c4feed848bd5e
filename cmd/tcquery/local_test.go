package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"themecomm/internal/dbnet"
	"themecomm/internal/federation"
	"themecomm/internal/gen"
	"themecomm/internal/obs"
	"themecomm/internal/server"
	"themecomm/internal/tctree"
)

// writeNetwork writes the BK analogue at scale 0.1 as dir/<name>.index plus
// its sibling dir/<name>.dbnet, the layout tcserver -networks serves.
func writeNetwork(t *testing.T, dir, name string) (indexPath, netPath string) {
	t.Helper()
	d, err := gen.ByName("BK", gen.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	indexPath = filepath.Join(dir, name+".index")
	if _, err := tctree.Build(d.Network, tctree.BuildOptions{}).WriteShardedAs(indexPath, tctree.FormatTCBIN); err != nil {
		t.Fatal(err)
	}
	netPath = filepath.Join(dir, name+".dbnet")
	if err := dbnet.WriteFileAtomic(netPath, d.Network, d.Dictionary); err != nil {
		t.Fatal(err)
	}
	return indexPath, netPath
}

// tcquery runs the command and returns what it printed.
func tcquery(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tcquery %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// serve starts a server over fed the way tcserver does, cold: no shard
// resident and no result cache, like a fresh tcquery -tree process, and
// observed, so its answers carry a request id as a local server's do.
func serve(t *testing.T, fed *federation.Federation) string {
	t.Helper()
	h, err := server.New(nil, server.Options{Federation: fed, Obs: obs.NewObserver(obs.ObserverOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

var (
	micros = regexp.MustCompile(` *[0-9]+µs`)
	source = regexp.MustCompile(`(by|from) \S+( \(request id [^)]*\))?`)
)

// normalize blanks what legitimately differs between two runs of one query:
// wall times, the request id, and the name of the source.
func normalize(s string) string {
	return source.ReplaceAllString(micros.ReplaceAllString(s, " Nµs"), "$1 SRC")
}

func TestLocalAnswersMatchServer(t *testing.T) {
	dir := t.TempDir()
	indexPath, netPath := writeNetwork(t, dir, "bk")
	remote := func() string {
		fed := federation.New(federation.Options{})
		if err := fed.AttachIndexDir("bk", indexPath, netPath); err != nil {
			t.Fatal(err)
		}
		return serve(t, fed)
	}
	local := []string{"-tree", indexPath, "-net", netPath}
	cases := [][]string{
		{"-alpha", "0.2"},
		{"-alpha", "0.2", "-top", "0"},
		{"-pattern", "hangout-c1-0,hangout-c1-1", "-alpha", "0.2"},
		{"-alpha", "0.2", "-topk", "5"},
		{"-pattern", "hangout-c1-0", "-alpha", "0.1", "-contains"},
		{"-alpha", "0.3", "-explain"},
		{"-pattern", "hangout-c1-0,hangout-c1-1", "-alpha", "0", "-explain", "-contains"},
		{"-alpha", "0.2", "-stream"},
		{"-alpha", "0.2", "-topk", "3", "-stream"},
		{"-alpha", "0.2", "-limit", "2"},
		{"-alpha", "0.2", "-topk", "5", "-limit", "2", "-stream"},
	}
	for _, args := range cases {
		got := tcquery(t, append(local, args...)...)
		want := tcquery(t, append([]string{"-server", remote()}, args...)...)
		if normalize(got) != normalize(want) {
			t.Errorf("tcquery %s: local answer\n%s\ndiffers from the server's\n%s", strings.Join(args, " "), got, want)
		}
		if !strings.Contains(got, "theme={") && !strings.Contains(got, "shard ") {
			t.Errorf("tcquery %s answered nothing:\n%s", strings.Join(args, " "), got)
		}
	}

	// A paginated answer resumes locally from the cursor it printed.
	page := tcquery(t, append(local, "-alpha", "0.2", "-limit", "2")...)
	m := regexp.MustCompile(`-cursor (\S+)`).FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("no cursor in a -limit 2 page:\n%s", page)
	}
	resumed := tcquery(t, append(local, "-cursor", m[1], "-limit", "2")...)
	if !strings.Contains(resumed, "  [1] theme={") || resumed == page {
		t.Fatalf("resuming from %s answered\n%s", m[1], resumed)
	}
}

// An index whose base name is no network name — a directory and an index
// name with a space — opens locally under a name made valid, and answers
// what the server answers for the same files.
func TestLocalIndexNamedWithASpace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "my dir")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	indexPath, netPath := writeNetwork(t, dir, "my net")
	fed := federation.New(federation.Options{})
	if err := fed.AttachIndexDir("bk", indexPath, netPath); err != nil {
		t.Fatal(err)
	}
	base := serve(t, fed)
	for _, args := range [][]string{{"-alpha", "0.2"}, {"-alpha", "0.2", "-topk", "3", "-stream"}} {
		// The header names the source: the index path here, with its space.
		got := strings.ReplaceAll(tcquery(t, append([]string{"-tree", indexPath, "-net", netPath}, args...)...), indexPath, base)
		want := tcquery(t, append([]string{"-server", base}, args...)...)
		if normalize(got) != normalize(want) || !strings.Contains(got, "theme={") {
			t.Errorf("tcquery -tree %q %s answered\n%s\nthe server\n%s", indexPath, strings.Join(args, " "), got, want)
		}
	}
}

func TestLocalNetworksDirectory(t *testing.T) {
	dir := t.TempDir()
	writeNetwork(t, dir, "bk")
	writeNetwork(t, dir, "bk2")

	var out bytes.Buffer
	err := run([]string{"-tree", dir, "-alpha", "0.2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "holds 2 networks; pick one with -network (available: bk, bk2)") {
		t.Fatalf("two networks without -network: %v", err)
	}
	if err := run([]string{"-tree", dir, "-network", "nosuch", "-alpha", "0.2"}, &out); err == nil || !strings.Contains(err.Error(), `no network "nosuch"`) {
		t.Fatalf("unknown -network: %v", err)
	}

	// -network picks the index, and its sibling .dbnet resolves item names,
	// exactly as the tenant of a tcserver -networks answers.
	fed, err := federation.Discover(dir, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := serve(t, fed)
	args := []string{"-network", "bk2", "-pattern", "hangout-c1-0,hangout-c1-1", "-alpha", "0.2"}
	got := tcquery(t, append([]string{"-tree", dir}, args...)...)
	want := tcquery(t, append([]string{"-server", base}, args...)...)
	if normalize(got) != normalize(want) {
		t.Fatalf("local -network answer\n%s\ndiffers from the server's\n%s", got, want)
	}
	if err := run([]string{"-tree", filepath.Join(dir, "bk.index"), "-network", "bk"}, &out); err == nil {
		t.Fatalf("-network with an index directory was accepted")
	}
}

func TestCommandLineRejections(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-tree", "x", "-cache", "1"}, // a one-shot process never hits a cache
		{"-alpha", "0.2"},             // neither -tree nor -server
	} {
		if err := run(args, &out); !errors.Is(err, errUsage) {
			t.Errorf("tcquery %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	for _, args := range [][]string{
		{"-tree", "x", "-explain", "-topk", "5"},
		{"-tree", "x", "-explain", "-stream"},
		{"-tree", "x", "-contains", "-pattern", "a", "-topk", "5"},
	} {
		if err := run(args, &out); err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "cannot be combined") && !strings.Contains(err.Error(), "not rankable") {
			t.Errorf("tcquery %s: %v, want the combination rejected", strings.Join(args, " "), err)
		}
	}
}
