package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// meta is the run metadata carried by every record.
type meta struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// GoLines is the non-test Go line count of the repository outside the
	// benchmark's own directory and outside testdata: the quality-of-design
	// number tracked next to every performance result.
	GoLines int `json:"go_lines"`
}

// benchDir is the benchmark's own directory, excluded from GoLines.
const benchDir = "hidapbench"

func collectMeta() meta {
	m := meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	m.GoLines = goLines(repoRoot())
	return m
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory that holds the root go.mod next to the benchmark
// directory.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, benchDir)); err == nil && fi.IsDir() {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// goLines counts the lines of non-test .go files under root, skipping the
// benchmark directory, testdata, hidden directories and build output.
func goLines(root string) int {
	n := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are not counted
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == benchDir || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			n++
		}
		return nil
	})
	return n
}
