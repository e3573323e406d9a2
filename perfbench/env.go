package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// pinnedJSON holds the answer digests of the default seed: per op in op
// order for ratio-cold and scan-jobs, and one digest of the whole warmed
// answer set of the warm path (whose working set does not depend on the
// seed). Regenerate with --pin after a change that is meant to change
// answers.
//
//go:embed pinned.json
var pinnedJSON []byte

type pinnedEntry struct {
	Ops []string `json:"ops,omitempty"`
	Set string   `json:"set,omitempty"`
}

// pinOps is how many ops --pin records per workload: more than a
// 40-second run completes on a 2-vCPU box.
var pinOps = map[string]int{"ratio-cold": 500, "scan-jobs": 800}

// pinAll reruns the named workloads at the default seed, and warms the
// warm path's working set, and writes their digests, keeping the others'
// pinned ones.
func pinAll(rc *runCtx, names []string) int {
	rc.seed, rc.probes, rc.pinning, rc.dur = defaultSeed, 0, true, 0
	pinned := rc.pinned
	for _, name := range names {
		wl, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		rc.pinOps = pinOps[name]
		out, err := wl(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pin %s: %v\n", name, err)
			return 1
		}
		pinned[name] = pinnedEntry{Ops: out.digests}
		fmt.Fprintf(os.Stderr, "perfbench: pinned %s: %d ops, problems %v\n", name, len(out.digests), out.problems)
	}
	st, d, err := startWarm(rc, warmSet())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pin the warm set:", err)
		return 1
	}
	st.close(newOutcome())
	pinned[warmSetPin] = pinnedEntry{Set: d}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %s %s\n", warmSetPin, d)
	b, err := json.MarshalIndent(pinned, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile("perfbench/pinned.json", append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkPinned compares the digest of op i against the pinned table when
// the run uses the default seed, and records it in pin mode.
func (rc *runCtx) checkPinned(o *outcome, workload string, i int, d string) {
	if rc.pinning {
		o.digests = append(o.digests, d)
		return
	}
	if rc.seed != defaultSeed {
		return
	}
	ops := rc.pinned[workload].Ops
	if i < len(ops) && ops[i] != d {
		o.problem("%s op %d: answer digest %s, pinned %s", workload, i, d, ops[i])
	}
}

// environment describes the machine and the source tree a result came
// from.
func environment() map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod files under root (build
// output and hidden directories skipped), identifying the tree measured
// even where no commit is stamped.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
