package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"themecomm/internal/dbnet"
	"themecomm/internal/gen"
	"themecomm/internal/itemset"
	"themecomm/internal/tctree"
)

// networkName is the one network every benchmark server fronts; the
// single-network routes resolve to it as the federation default.
const networkName = "bench"

// moduleRoot walks up from the working directory to the go.mod of the
// themecomm module: `go run ./cmd/tcload` starts at the root, `go test` in
// the package directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module themecomm")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("tcload must run inside the themecomm module: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// env is where a tcload process keeps everything it writes: the tcserver
// binary it builds and one scratch directory per run, all inside the
// checkout and all ignored by git.
type env struct {
	root      string
	work      string // <root>/.bench_build/tcload
	serverBin string
}

// newEnv locates the module and builds tcserver from the checkout's source.
// The build is not part of any metric.
func newEnv(ctx context.Context) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, work: filepath.Join(root, ".bench_build", "tcload")}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	e.serverBin = filepath.Join(e.work, "tcserver")
	build := exec.CommandContext(ctx, "go", "build", "-o", e.serverBin, "./cmd/tcserver")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building tcserver: %v\n%s", err, out)
	}
	return e, nil
}

// runDir makes a fresh scratch directory for one run.
func (e *env) runDir(label string) (string, error) {
	return os.MkdirTemp(e.work, label+"-")
}

// site is one built dataset on disk, ready to be served: the networks
// directory tcserver -networks reads, plus the harness's own copies — the
// eager tree and a private network — which share no sharding, planner, cache
// or HTTP code with the served path and so act as the oracle.
type site struct {
	dir         string // run scratch directory
	networksDir string
	indexDir    string
	netPath     string
	netData     []byte // the network file as built, before any checkpoint stamps it
	journalDir  string
	tree        *tctree.Tree
	nw          *dbnet.Network // private copy; the harness mirrors updates into it
	dict        *itemset.Dictionary
	stats       dbnet.Stats
	shards      int
	indexBytes  int64
	// buildSpans are the set-up phases by per-layer metric name, in the
	// metric's unit.
	buildSpans map[string]float64
}

// buildSite generates the dataset, builds and writes its TCBIN index and its
// network file, and re-reads the network for the harness's private copy.
func buildSite(dir string, s spec, scale float64) (*site, error) {
	st := &site{dir: dir, networksDir: filepath.Join(dir, "networks"), buildSpans: map[string]float64{}}
	st.indexDir = filepath.Join(st.networksDir, networkName+".index")
	st.netPath = filepath.Join(st.networksDir, networkName+".dbnet")
	st.journalDir = filepath.Join(dir, "journal")
	if err := os.MkdirAll(st.networksDir, 0o755); err != nil {
		return nil, err
	}
	span := func(name string, start time.Time) {
		d := time.Since(start).Seconds()
		if strings.HasSuffix(name, "_ms") {
			d *= 1e3
		}
		st.buildSpans[name] = d
	}

	t0 := time.Now()
	ds, err := gen.ByName(s.dataset, gen.Scale(s.datasetScale*scale))
	if err != nil {
		return nil, err
	}
	span("gen.dataset_s", t0)
	st.dict = ds.Dictionary
	st.stats = ds.Network.Stats()

	t0 = time.Now()
	st.tree = tctree.Build(ds.Network, tctree.BuildOptions{})
	span("tctree.build_s", t0)

	t0 = time.Now()
	manifest, err := st.tree.WriteShardedAs(st.indexDir, tctree.FormatTCBIN)
	if err != nil {
		return nil, err
	}
	span("tctree.write_s", t0)
	st.shards = len(manifest.Shards)

	t0 = time.Now()
	if err := dbnet.WriteFileAtomic(st.netPath, ds.Network, ds.Dictionary); err != nil {
		return nil, err
	}
	span("dbnet.write_ms", t0)

	t0 = time.Now()
	if _, err := tctree.OpenSharded(st.indexDir); err != nil {
		return nil, err
	}
	span("tctree.open_ms", t0)

	if st.nw, _, err = dbnet.ReadFile(st.netPath); err != nil {
		return nil, err
	}
	if st.netData, err = os.ReadFile(st.netPath); err != nil {
		return nil, err
	}
	st.indexBytes, err = dirBytes(st.indexDir)
	return st, err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// child is one spawned tcserver.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	readyMS float64 // spawn → first /healthz 200
	done    chan struct{}
}

var listenRe = regexp.MustCompile(`listening on (127\.0\.0\.1:[0-9]+)`)

// spawn starts tcserver on 127.0.0.1:0 over the site with the workload's
// flags, parses the bound address from its log, and waits for /healthz.
func (e *env) spawn(ctx context.Context, st *site, s spec) (*child, error) {
	args := []string{"-networks", st.networksDir, "-addr", "127.0.0.1:0"}
	if s.journal {
		args = append(args, "-journal", st.journalDir)
	}
	args = append(args, s.serverFlags()...)
	return startChild(ctx, st.dir, "tcserver", e.serverBin, args)
}

// spawnRef starts the reference server: this very binary in -refserver mode.
func (e *env) spawnRef(ctx context.Context, dir string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startChild(ctx, dir, "refserver", self, []string{"-refserver"})
}

// startChild starts a server binary that logs "listening on 127.0.0.1:port",
// parses the bound address from its log, and waits for /healthz.
func startChild(ctx context.Context, dir, label, bin string, args []string) (*child, error) {
	logPath := filepath.Join(dir, fmt.Sprintf("%s-%d.log", label, time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	c := &child{cmd: exec.Command(bin, args...), logPath: logPath, done: make(chan struct{})}
	c.cmd.Stdout = logFile
	c.cmd.Stderr = logFile
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries nothing
		close(c.done)
	}()

	deadline := start.Add(60 * time.Second)
	for c.base == "" {
		if data, err := os.ReadFile(logPath); err == nil {
			if m := listenRe.FindSubmatch(data); m != nil {
				c.base = "http://" + string(m[1])
				break
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("%s exited during start-up:\n%s", label, c.logTail())
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s did not start listening:\n%s", label, c.logTail())
		}
	}
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reusable
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s never answered /healthz: %v\n%s", label, err, c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.readyMS = time.Since(start).Seconds() * 1e3
	return c, nil
}

// kill stops the child with SIGKILL — the benchmark's servers never shut
// down gracefully, so every restart exercises crash recovery — and waits
// until it has gone.
func (c *child) kill() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-c.done
}

// pause stops the child with SIGSTOP and returns the call that lets it
// continue. Sockets stay open and timers catch up; a child that has exited
// ignores both.
func (c *child) pause() (resume func()) {
	_ = c.cmd.Process.Signal(syscall.SIGSTOP) // already-exited is fine
	return func() { _ = c.cmd.Process.Signal(syscall.SIGCONT) }
}

func (c *child) logTail() string {
	data, _ := os.ReadFile(c.logPath) // diagnostics only
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// procUsage is a snapshot of the child's /proc accounting.
type procUsage struct {
	cpu   time.Duration // user + system
	rssMB float64       // VmRSS, the resident set right now
	hwmMB float64       // VmHWM, its high-water mark
}

// clockTick is USER_HZ: /proc/<pid>/stat reports CPU in these ticks, and
// Linux has fixed it at 100 for user space on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func (c *child) usage() (procUsage, error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	var u procUsage
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	u.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "VmRSS:" && f[0] != "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return u, err
		}
		if f[0] == "VmRSS:" {
			u.rssMB = kb / 1024
		} else {
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

// selfCPU is the load generator's own user + system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
