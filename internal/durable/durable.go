// Package durable replaces files durably for the index (internal/tctree),
// the network file (internal/dbnet) and the journal: WriteFile writes a
// temporary file, fsyncs it and renames it over the target, so a crash leaves
// the complete old file or the complete new one, never a torn one. A rename
// survives a crash once its directory is fsynced (SyncDir); what a failed
// directory sync means is each caller's decision.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// Fault, when non-nil, is consulted between a file's fsync and its rename
// with the file's base name. An error it returns fails WriteFile the way a
// crash at that moment would: the target is untouched and the synced
// temporary file is left behind. Tests set it; it is nil otherwise.
var Fault func(name string) error

// WriteFile durably replaces path with what write writes: write-to-temp
// (path + ".tmp"), fsync, close, rename. A failure removes the temporary
// file, so errors do not strand it.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && Fault != nil {
		if err = Fault(filepath.Base(path)); err != nil {
			return err // a simulated crash: the temporary file stays
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// SyncDir fsyncs the directory dir, so that the renames inside it survive a
// crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
