package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// environment is recorded in every report so that two reports from
// different machines or sources are never silently compared.
type environment struct {
	// Source identifies the measured code: the SHA-256 of every Go source
	// and go.mod file under the checkout root (the checkout need not be a
	// git repository, so this stands in for the commit).
	Source          string  `json:"source"`
	GoVersion       string  `json:"go_version"`
	OS              string  `json:"os"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	WALFilesystem   string  `json:"wal_filesystem"`
	ServeEdgesPerS  int     `json:"serve_edges_per_s"`
	ServeEdges      int     `json:"serve_prefix_edges"` // 0: the whole stream
	ServeBatch      int     `json:"serve_batch"`
	RoutePerS       int     `json:"route_per_s"`
	PollMS          float64 `json:"poll_ms"`
	CheckpointEvery int     `json:"checkpoint_every_batches"`
	WALSync         string  `json:"wal_sync"`
	K               int     `json:"k"`
	WindowSize      int     `json:"window_size"`
	Vertices        int     `json:"vertices"`
	StreamEdges     int     `json:"stream_edges"`
}

func newEnvironment(sp spec, cfg config, scratch string) environment {
	return environment{
		Source:          sourceID(cfg.root),
		GoVersion:       runtime.Version(),
		OS:              runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Seed:            cfg.seed,
		Seconds:         cfg.seconds,
		WALFilesystem:   filesystemOf(scratch),
		ServeEdgesPerS:  serveRate,
		ServeEdges:      sp.serveEdges,
		ServeBatch:      serveBatch,
		RoutePerS:       routeRate,
		PollMS:          float64(pollInterval.Microseconds()) / 1000,
		CheckpointEvery: checkpointEvery,
		WALSync:         "batch",
		K:               partitions,
		WindowSize:      windowSize,
	}
}

// sourceID hashes the checkout's Go sources and module files, skipping
// hidden directories (build output lives in one).
func sourceID(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// filesystemOf names the filesystem holding dir, from statfs's magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0xf2f52010: "f2fs", 0x5346544e: "ntfs", 0x4d44: "vfat",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
