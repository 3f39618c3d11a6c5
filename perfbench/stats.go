package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as the result line reports it.
type metric struct {
	name  string
	value float64
	unit  string
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// overheadPct is the tracing overhead: how much slower the traced
// samples ([1]) are than the untraced ones ([0]), in percent.
func overheadPct(tagged [2][]float64) float64 {
	return 100 * (median(tagged[1])/median(tagged[0]) - 1)
}

// newRNG derives an independent deterministic stream for one generator
// from the run seed, so each generator's inputs depend only on --seed.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(stream))
	var k uint64
	for _, b := range h[:8] {
		k = k<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(seed, k))
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// userHZ is the unit of the /proc/stat counters (USER_HZ, 100 on Linux).
const userHZ = 100

// cpuSnap is the machine's CPU time counters and the CPU time of this
// process and its children at one instant. Two snapshots bracket a
// sample and tell how much of the machine others took meanwhile.
type cpuSnap struct {
	total, busy, steal int64   // machine-wide, in 1/userHZ s
	own                float64 // this process tree, in seconds
}

// snapCPU takes a snapshot; the machine counters are zero when
// /proc/stat is unavailable.
func snapCPU() cpuSnap {
	var s cpuSnap
	var self, kids syscall.Rusage
	// getrusage fails only for an unknown who or a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	for _, ru := range []syscall.Rusage{self, kids} {
		s.own += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user and nice.
	for i, f := range strings.Fields(line)[1:] {
		var n int64
		_, _ = fmt.Sscan(f, &n) // the kernel writes decimal counters
		switch {
		case i == 3 || i == 4:
			s.total += n
		case i == 7:
			s.total += n
			s.steal += n
		case i < 7:
			s.total += n
			s.busy += n
		}
	}
	return s
}

// procCPU is the CPU time, in seconds, that a running process has used
// so far; zero when unavailable.
func procCPU(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: utime and stime are
	// the 12th and 13th, in 1/userHZ s.
	_, rest, _ := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	var ut, st int64
	_, _ = fmt.Sscan(f[11], &ut) // the kernel writes decimal counters
	_, _ = fmt.Sscan(f[12], &st)
	return float64(ut+st) / userHZ
}

// interference is the share of the machine's CPU time between a and b
// that went to someone else: stolen by the hypervisor for other guests,
// or busy in processes other than this one and its children. A sample
// taken while others held the CPUs measures them as much as the code.
func interference(a, b cpuSnap) float64 {
	total := b.total - a.total
	if total <= 0 {
		return 0
	}
	foreign := max(float64(b.busy-a.busy)-(b.own-a.own)*userHZ, 0)
	return (float64(b.steal-a.steal) + foreign) / float64(total)
}

// cleanShare is the interference below which a sample counts as taken
// on a quiet machine: about one clock tick of others in a short sample.
const cleanShare = 0.05

// quieter returns, in sample order, the indices of the samples taken
// with no more interference than the median sample or than cleanShare:
// at least half of them, and all of them on a quiet machine.
// Interference only ever adds time, so the figures come from these
// samples. A host that is busy for part of a run then moves them little,
// and the selection never looks at the measured values themselves.
func quieter(shares []float64) []int {
	s := append([]float64(nil), shares...)
	sort.Float64s(s)
	limit := max(s[(len(s)-1)/2], cleanShare)
	var idx []int
	for i, x := range shares {
		if x <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns xs at the given indices.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

// fingerprint identifies the machine and the code a result was measured
// on, so a hardware change can be told from a regression.
func fingerprint() map[string]any {
	return map[string]any{
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"git_commit":  gitCommit(),
		"source_hash": sourceHash(),
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

// gitCommit is HEAD of the checkout the benchmark runs from, or "none"
// when that directory is not itself a git work tree (git is not allowed
// to search parent directories, which could belong to another repo).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the module's Go sources and go.mod files in path
// order: the code identity when there is no git commit to name.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			data, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write([]byte{0})
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
