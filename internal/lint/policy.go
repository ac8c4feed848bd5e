package lint

// This file is the machine-readable architecture policy: every rule below is
// an invariant some PR established and later code silently depended on. Each
// entry says where it came from, so a future change that needs to relax a
// rule knows what it is trading away. docs/STATIC_ANALYSIS.md is the prose
// version; keep the two in sync.

// LayerRule forbids a package subtree from importing certain paths.
type LayerRule struct {
	// Pkg is the module-relative package the rule constrains. A trailing
	// "/" makes it a subtree prefix; otherwise it is an exact match.
	Pkg string
	// Deny lists forbidden imports: module-relative for module-internal
	// packages ("internal/obs"), full paths for the rest ("net/http").
	// Entries match the path itself and any of its subpackages.
	Deny []string
	// Why is the one-line justification printed with findings.
	Why string
}

// LayerRules is the declared import DAG. It encodes the layering the
// architecture docs promise: tctree (storage) below engine (execution) below
// federation (multi-tenant serving) below server (HTTP); obs strictly to the
// side, reachable only from above the engine via the trace seam.
var LayerRules = []LayerRule{
	{
		Pkg:  "internal/engine",
		Deny: []string{"internal/obs", "internal/server", "internal/federation", "internal/replication", "internal/client", "internal/journal", "net/http"},
		Why:  "the engine observes through the internal/trace Recorder seam (PR 6) and serves through layers above it; it must stay embeddable without HTTP or metrics",
	},
	{
		Pkg:  "internal/tctree",
		Deny: []string{"internal/engine", "internal/federation", "internal/server", "internal/obs", "internal/delta", "internal/replication", "net/http"},
		Why:  "the index storage layer sits below execution (PR 2): engines open indexes, never the reverse",
	},
	{
		Pkg:  "internal/federation",
		Deny: []string{"internal/obs", "internal/server", "internal/replication", "net/http"},
		Why:  "federation is the multi-tenant engine layer (PR 4); HTTP and metrics wiring belong to internal/server",
	},
	{
		Pkg:  "internal/delta",
		Deny: []string{"internal/engine", "internal/tctree", "internal/federation", "internal/server", "internal/obs", "net/http"},
		Why:  "deltas describe network changes (PR 5); the rebuild machinery that consumes them lives above",
	},
	{
		Pkg:  "internal/journal",
		Deny: []string{"internal/engine", "internal/tctree", "internal/delta", "internal/federation", "internal/server", "internal/obs", "net/http"},
		Why:  "the journal is a freestanding durable log (PR 9); replication composes it with the engine, not vice versa",
	},
	{
		Pkg:  "internal/obs",
		Deny: []string{"internal/engine", "internal/tctree", "internal/federation", "internal/server", "internal/replication"},
		Why:  "observability consumes engine observations through internal/trace (PR 6); importing execution layers would cycle the seam",
	},
	{
		Pkg:  "internal/trace",
		Deny: []string{"internal/"},
		Why:  "trace is the leaf seam both sides of the engine↔obs boundary import; it may depend on nothing in this module",
	},
	{
		Pkg:  "internal/durable",
		Deny: []string{"internal/"},
		Why:  "durable is the one temp → fsync → rename routine tctree, dbnet and the journal share; a leaf, it may depend on nothing in this module",
	},
	{
		Pkg:  "internal/par",
		Deny: []string{"internal/"},
		Why:  "par holds the bounded parallel loops the miners, the index build and writer, the executor and the federation share; a leaf, it may depend on nothing in this module",
	},
	{
		Pkg:  "internal/replication",
		Deny: []string{"internal/server", "internal/obs", "net/http"},
		Why:  "replication drives engines and journals (PR 9); HTTP transport for the journal feed lives in internal/server and internal/client",
	},
}

// RestrictedImport inverts a layer rule: the import is forbidden everywhere
// except the listed packages.
type RestrictedImport struct {
	// Path is the restricted import (it and its subpackages).
	Path string
	// Allowed lists module-relative packages that may import it. A trailing
	// "/" makes an entry a subtree prefix; "" is the module root package.
	Allowed []string
	// Why is the one-line justification printed with findings.
	Why string
}

// RestrictedImports pins transport dependencies to the serving edge.
var RestrictedImports = []RestrictedImport{
	{
		Path:    "net/http",
		Allowed: []string{"internal/server", "internal/obs", "internal/client", "internal/replication", "cmd/", ""},
		Why:     "HTTP is the serving edge (PR 1/PR 9): handlers in internal/server, middleware in internal/obs, the typed client, and binaries; core layers must stay transport-free",
	},
}

// PersistencePackages are the module-relative packages whose writes must
// follow the write-temp → fsync → rename discipline (PR 5's crash-safety
// hardening). The atomicwrite analyzer only checks these; internal/durable
// holds the one routine the others replace files through.
var PersistencePackages = []string{
	"internal/durable",
	"internal/tctree",
	"internal/dbnet",
	"internal/delta",
	"internal/journal",
	"internal/replication",
}

// QueryBlockingMutexes names mutexes whose write-side critical sections
// block every in-flight query; the lockhold analyzer forbids file and
// network I/O lexically inside them. updateMu is the engine's index-swap
// lock (PR 5): staging, encoding and fsyncs happen outside it, only the
// in-memory table swap (plus the sanctioned one-manifest-rename commit,
// which lives in tctree, below this analysis) happens inside.
var QueryBlockingMutexes = []string{"updateMu"}

// IOPackages are import paths whose direct calls count as I/O for the
// lockhold analyzer. Module-internal entries are module-relative.
var IOPackages = []string{
	"os",
	"syscall",
	"io/ioutil",
	"net",
	"net/http",
	"internal/dbnet",
	"internal/durable",
	"internal/journal",
}

// ErrEnvelopePackage is the package whose error responses must all flow
// through the writeError choke point (PR 9's uniform
// {error,status,requestId} envelope), and ErrEnvelopeFunc that choke point.
const (
	ErrEnvelopePackage = "internal/server"
	ErrEnvelopeFunc    = "writeError"
)

// matchPkg reports whether a module-relative package path matches a policy
// entry (exact, or subtree when the entry ends in "/").
func matchPkg(rel, entry string) bool {
	if entry == "" || entry == rel {
		return entry == rel
	}
	if last := entry[len(entry)-1]; last == '/' {
		return rel == entry[:len(entry)-1] || len(rel) > len(entry) && rel[:len(entry)] == entry
	}
	return false
}

// matchImport reports whether an import path matches a policy entry: the
// entry itself or any subpackage of it.
func matchImport(imp, entry string) bool {
	if imp == entry {
		return true
	}
	if last := entry[len(entry)-1]; last == '/' {
		return len(imp) >= len(entry) && imp[:len(entry)] == entry
	}
	return len(imp) > len(entry) && imp[:len(entry)] == entry && imp[len(entry)] == '/'
}
