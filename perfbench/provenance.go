package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance records what produced a result: the source revision (from
// the build's VCS stamp when built in a git checkout, else a digest of
// the engine's Go sources), the host's processor count and scheduler
// width, the Go version and the workload seed.
func provenance(seed int64, workload string, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"workload":      workload,
		"trace":         trace,
	}
}

// sourceDigest hashes go.mod and every .go file under internal/ of the
// module rooted at dir, in path order.
func sourceDigest(dir string) string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		h.Write([]byte(path))
		h.Write(b)
	}
	add(filepath.Join(dir, "go.mod"))
	filepath.WalkDir(filepath.Join(dir, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
