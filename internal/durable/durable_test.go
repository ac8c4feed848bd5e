package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func assertNoFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s exists (%v)", path, err)
	}
}

// TestWriteFile replaces a file twice and leaves no temporary file.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, content := range []string{"old", "new"} {
		if err := WriteFile(path, writeString(content)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if got := readFile(t, path); got != content {
			t.Fatalf("file holds %q, want %q", got, content)
		}
	}
	assertNoFile(t, path+".tmp")
}

// TestWriteFileFailureKeepsTheTarget fails the write: the target keeps its
// bytes and the temporary file is removed.
func TestWriteFileFailureKeepsTheTarget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("write failed")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("WriteFile returned %v, want the write's error", err)
	}
	if got := readFile(t, path); got != "old" {
		t.Fatalf("file holds %q after a failed write", got)
	}
	assertNoFile(t, path+".tmp")
}

// TestFaultActsAsACrash fails the rename through the hook: the hook sees the
// base name, the target keeps its bytes, and the synced temporary file stays
// as a crash would leave it.
func TestFaultActsAsACrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	var seen string
	injected := errors.New("injected")
	Fault = func(name string) error {
		seen = name
		return injected
	}
	defer func() { Fault = nil }()
	if err := WriteFile(path, writeString("new")); !errors.Is(err, injected) {
		t.Fatalf("WriteFile returned %v, want the injected error", err)
	}
	if seen != "f" {
		t.Fatalf("the hook saw %q, want the base name f", seen)
	}
	if got := readFile(t, path); got != "old" {
		t.Fatalf("file holds %q after a failed rename", got)
	}
	if got := readFile(t, path+".tmp"); got != "new" {
		t.Fatalf("the temporary file holds %q, want the synced new bytes", got)
	}
}

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}
