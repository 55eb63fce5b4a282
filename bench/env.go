package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// stamp records where and how a result was measured. Latencies are this
// machine's, not a device's: the stamp is what makes two results comparable
// or not.
type stamp struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Clients     int     `json:"clients"`
	CPU         string  `json:"cpu_model"`
	Go          string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Scale       string  `json:"scale"`
	Seconds     float64 `json:"seconds"`
	FS          string  `json:"data_dir_fs"`
	FsyncFree   bool    `json:"fsync_free"`
	FlushPolicy string  `json:"flush_policy"`
	FsyncP50us  float64 `json:"device.fsync_p50_us"`
}

func newStamp(cfg *config, scale string) (stamp, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return stamp{}, err
	}
	fsync, err := fsyncProbe(cfg.out, 200)
	if err != nil {
		return stamp{}, err
	}
	fs := fsType(cfg.out)
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.clients,
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit(),
		Seed: cfg.seed, Scale: scale, Seconds: cfg.window.Seconds(),
		FS: fs, FsyncFree: fs == "tmpfs" || fs == "ramfs",
		FlushPolicy: "group-commit", FsyncP50us: us(fsync),
	}, nil
}

// fsyncProbe times n rounds of a 4 KiB write followed by fsync on a scratch
// file in dir, and returns the median: the disk of the day, against which
// write latencies are read.
func fsyncProbe(dir string, n int) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return medianOf(d), nil
}

// fsType names the file system under dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
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

// commit names the checkout being measured; a checkout that is not a git
// repository (the benchmark driver's) has none.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	if _, err := os.Stat(filepath.Join(wd, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
