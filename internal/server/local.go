package server

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"themecomm/internal/federation"
	"themecomm/internal/obs"
	"themecomm/internal/replication"
)

// Local is an index served on an in-process loopback listener: the way the
// command-line tools open an index, so that they answer and update through
// the same HTTP client as against a running tcserver.
type Local struct {
	// URL is the server's base URL.
	URL string
	// Network is the served network.
	Network *federation.Network

	srv     *http.Server
	done    chan struct{}
	primary *replication.Primary // nil unless the pair is writable
}

// ServeLocal opens an index directory the way tcserver -tree does — attached
// through AttachIndexDir to a one-network federation, named after the
// directory (resolved, so "." names the working directory; made a valid
// network name by federation.SafeName, so "my net.index" is network my_net),
// with netPath (may be empty) as its database network — and
// serves it on a 127.0.0.1 listener. It keeps no result cache, which a
// one-shot process never hits. A read-only server answers every update 403
// and opens no journal; a writable one is a primary like tcserver's
// (replication.OpenPrimary, the journal beside the index) without the
// checkpoint loop: Close checkpoints. It is observed like tcserver -quiet:
// GET /metrics answers, nothing is logged. workers bounds the
// shard-traversal parallelism (0 = GOMAXPROCS).
func ServeLocal(indexPath, netPath string, workers int, readOnly bool) (l *Local, err error) {
	abs, err := filepath.Abs(indexPath)
	if err != nil {
		return nil, err
	}
	o := obs.NewObserver(obs.ObserverOptions{})
	fed := federation.New(federation.Options{Workers: workers, Recorder: o})
	name := federation.SafeName(federation.NetworkName(abs))
	if err := fed.AttachIndexDir(name, indexPath, netPath); err != nil {
		return nil, err
	}
	var p *replication.Primary
	if !readOnly {
		if p, _, err = replication.OpenPrimary(fed, "", replication.Options{CheckpointInterval: -1}); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil && p != nil {
				p.Close()
			}
		}()
	}
	h, err := New(nil, Options{Federation: fed, ReadOnly: readOnly, Primary: p, Obs: o})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n, _ := fed.Network(name)
	l = &Local{URL: "http://" + ln.Addr().String(), Network: n, primary: p,
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // ErrServerClosed after Close; any earlier failure fails the client's request
	}()
	return l, nil
}

// Close shuts the server down once every request in flight has finished or
// ctx is done, then checkpoints a writable pair and closes its journal
// (replication.Primary.Close); what a failed checkpoint did not persist, the
// next writable open replays.
func (l *Local) Close(ctx context.Context) error {
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
	if l.primary == nil {
		return nil
	}
	return l.primary.Close()
}
