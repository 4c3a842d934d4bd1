package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/debug"
	"strings"
)

// envInfo is the machine and code a result was measured on.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func readEnv(root string, seed uint64) envInfo {
	return envInfo{
		NumCPU:     gort.NumCPU(),
		GOMAXPROCS: gort.GOMAXPROCS(0),
		GoVersion:  gort.Version(),
		CPU:        cpuModel(),
		Commit:     commitID(root),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return gort.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return gort.GOARCH
}

// commitID names the code under test: the commit the binary was built
// from (stamped by go build in a git work tree, "+dirty" when it had
// uncommitted changes), otherwise a digest of the Go sources and module
// files under root (a checkout exported without its history).
func commitID(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, st := range info.Settings {
			switch {
			case st.Key == "vcs.revision":
				rev = st.Value
			case st.Key == "vcs.modified" && st.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "src-sha256:" + sourceDigest(root)
}

func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
