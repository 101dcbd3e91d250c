package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// provenance is the recorded machine: what a number in this run's output
// was measured on, so two outputs can be told comparable or not.
type provenance struct {
	Commit     string
	Dirty      bool
	GoVersion  string
	GOMAXPROCS int
	NumCPU     int
	CPUModel   string
	Kernel     string
	ScratchFS  string
	Spread     bool // store roots spread over block groups (spreadChildren)
	Geometry   string
	Seed       int64
	Rounds     int
	Seconds    int
}

func stamp(scratch string, spread bool, seed int64, prof *profile, seconds int) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", ScratchFS: fsType(scratch), Spread: spread,
		Geometry: fmt.Sprintf("k=%d r=%d unit=%dKiB nodes=%d peers=%d write-quorum=%d",
			codeK, codeR, unitSize>>10, nodeDirs, peerCount, writeQuorum),
		Seed: seed, Rounds: prof.rounds, Seconds: seconds,
	}
	// A checkout that is not a git repository (an exported tree) stays
	// "unknown"; git is only asked, never required.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}

func (p provenance) String() string {
	dirty := ""
	if p.Dirty {
		dirty = "+dirty"
	}
	spread := ""
	if p.Spread {
		spread = ", store roots spread over block groups"
	}
	return fmt.Sprintf("commit %s%s · %s · GOMAXPROCS %d · nproc %d · %s · kernel %s · scratch on %s%s\n%s · seed %d · %d rounds · %d s measured per workload",
		p.Commit, dirty, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, p.Kernel, p.ScratchFS, spread,
		p.Geometry, p.Seed, p.Rounds, p.Seconds)
}
