package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machineKeys are the stamp fields that identify the machine. Results
// whose machine fields differ are never compared.
var machineKeys = []string{"gomaxprocs", "nproc", "cpu_model", "go_version"}

// machineStamp describes where and on what a result was measured.
func machineStamp(e env, workload string, trace int) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(e.root),
		"workload":   workload,
		"seed":       e.seed,
		"trace":      trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code measured: the git commit when the checkout is
// a repository, otherwise a hash of the Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f) // f is under root
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// savedOutput is a benchmark output read back from a file: its info
// line (with the stamp) and its result line.
type savedOutput struct {
	stamp map[string]any
	res   result
}

func readOutput(path string) (savedOutput, error) {
	var o savedOutput
	b, err := os.ReadFile(path)
	if err != nil {
		return o, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		return o, fmt.Errorf("%s: want an info line and a result line", path)
	}
	var info map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return o, fmt.Errorf("%s: info line: %w", path, err)
	}
	stamp, ok := info["stamp"].(map[string]any)
	if !ok {
		return o, fmt.Errorf("%s: no machine stamp", path)
	}
	o.stamp = stamp
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o.res); err != nil {
		return o, fmt.Errorf("%s: result line: %w", path, err)
	}
	return o, nil
}

// sameMachine reports the machine fields on which two stamps differ.
func sameMachine(a, b map[string]any) []string {
	var diff []string
	for _, k := range machineKeys {
		if fmt.Sprint(a[k]) != fmt.Sprint(b[k]) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", k, a[k], b[k]))
		}
	}
	return diff
}

// compareFiles prints each metric of two saved outputs side by side,
// refusing (exit 1) when they were measured on different machines or
// different workloads.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare BASE.out NEW.out")
		return 2
	}
	a, err := readOutput(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readOutput(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if diff := sameMachine(a.stamp, b.stamp); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different machines: %s\n", strings.Join(diff, "; "))
		return 1
	}
	if a.stamp["workload"] != b.stamp["workload"] || a.stamp["trace"] != b.stamp["trace"] {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare different workloads or run kinds")
		return 1
	}
	fmt.Printf("%-36s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, k := range sortedKeys(a.res.Metrics) {
		ma, mb := a.res.Metrics[k], b.res.Metrics[k]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %9s %s\n", k, ma.Value, mb.Value, change, ma.Unit)
	}
	return 0
}
