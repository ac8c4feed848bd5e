package federation

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"themecomm/internal/dbnet"
	"themecomm/internal/tctree"
)

// DiscoveredNetwork is one indexed network found inside a networks
// directory.
type DiscoveredNetwork struct {
	// Name is the network name derived from the index directory name:
	// "bk.index/" yields "bk".
	Name string
	// IndexPath is the index directory to serve.
	IndexPath string
	// NetworkPath is the optional sibling "<name>.dbnet" database-network
	// file; when present its dictionary resolves item names for the network.
	// Empty when there is none.
	NetworkPath string
}

// DiscoverNetworks scans dir for indexed networks: every index directory
// (one containing an index.manifest) directly inside dir becomes one network,
// named after its base name with the ".index" suffix stripped. A sibling
// "<name>.dbnet" file, when present, is recorded as the network's dictionary
// source. Networks are returned in ascending name order; two entries
// resolving to the same name (e.g. "bk.index/" next to "bk/") is an error.
func DiscoverNetworks(dir string) ([]DiscoveredNetwork, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]DiscoveredNetwork)
	for _, entry := range entries {
		path := filepath.Join(dir, entry.Name())
		if !entry.IsDir() || !tctree.IsSharded(path) {
			continue
		}
		d := DiscoveredNetwork{Name: NetworkName(path), IndexPath: path}
		if prev, dup := byName[d.Name]; dup {
			return nil, fmt.Errorf("federation: %s and %s both resolve to network %q", prev.IndexPath, d.IndexPath, d.Name)
		}
		if netPath := filepath.Join(dir, d.Name+".dbnet"); fileExists(netPath) {
			d.NetworkPath = netPath
		}
		byName[d.Name] = d
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("federation: no indexed networks in %s (expected index directories written by tcindex -out)", dir)
	}
	out := make([]DiscoveredNetwork, 0, len(byName))
	for _, d := range byName {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// NetworkName is the name an index directory is served under: its base name
// with the ".index" suffix stripped ("warehouse/bk.index" yields "bk").
func NetworkName(indexDir string) string {
	return strings.TrimSuffix(filepath.Base(indexDir), ".index")
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// Discover builds a Federation from every network DiscoverNetworks finds in
// dir, each attached with AttachIndexDir.
func Discover(dir string, opts Options) (*Federation, error) {
	discovered, err := DiscoverNetworks(dir)
	if err != nil {
		return nil, err
	}
	f := New(opts)
	for _, d := range discovered {
		if err := f.AttachIndexDir(d.Name, d.IndexPath, d.NetworkPath); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// AttachIndexDir attaches the index directory at indexPath lazily under name.
// A non-empty networkPath names the database network the index was built
// from: its dictionary resolves item names, and the parsed network makes the
// tenant writable, written back to networkPath at every checkpoint.
func (f *Federation) AttachIndexDir(name, indexPath, networkPath string) error {
	var nopts NetworkOptions
	if networkPath != "" {
		nw, dict, err := dbnet.ReadFile(networkPath)
		if err != nil {
			return fmt.Errorf("federation: network %q: %w", name, err)
		}
		nopts = NetworkOptions{Dictionary: dict, Network: nw, NetworkPath: networkPath}
	}
	idx, err := tctree.OpenSharded(indexPath)
	if err != nil {
		return fmt.Errorf("federation: network %q: %w", name, err)
	}
	return f.AttachIndex(name, idx, nopts)
}
