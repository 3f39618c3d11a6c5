// Command perfbench is the benchmark every performance claim in this
// repository is measured with. It drives four user-visible paths of
// optsched end to end — a Cluster.Verify suite, schedverifyd
// submit→verdict round trips over HTTP with the fsync store, an
// executor draining skewed bursts, and a loadgen sweep — and times
// each layer from outside, around the benchmark's own calls into that
// layer's public functions. See README.md in this directory.
//
//	perfbench --workload verify-suite --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloads names the four workloads; each is one of the paths.
var workloads = []string{"verify-suite", "verifyd-mixed", "executor-burst", "sweep-tail"}

// The scheduler splits --seconds in proportion to these weights: the
// workload's own path gets ownWeight; as a reference, a path gets
// refWeight. Every path needs enough quiet slices in every run for
// steady figures; the executor's bursts are short and many, so its
// reference needs the least time.
const ownWeight = 3.0

var refWeight = map[string]float64{
	"verify-suite": 2, "verifyd-mixed": 2, "executor-burst": 1.5, "sweep-tail": 2,
}

// sliceTarget is the length of one scheduling slice. Slices of the four
// paths interleave, so every path's samples span the whole run and a
// drift in machine speed during the run reaches all of them.
const sliceTarget = 400 * time.Millisecond

// path is one user-visible path under measurement.
type path interface {
	setup() error
	// slice runs the path's operations until the given time (at least
	// one), with spans recorded when traced.
	slice(traced bool, until time.Time) error
	// enough reports whether the path has the minimum samples its
	// metrics and correctness gates need.
	enough() bool
	e2e() []metric
	layers() []metric
	// overhead is the tracing overhead in percent, from the path's
	// traced and untraced slices.
	overhead() float64
	summary() string
	counter() *counter
	close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed every input generator derives from")
	secs := fs.Float64("seconds", 24, "measurement time of the run")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	isProbe := fs.Bool("probe", false, "internal: run the workload's cold set-up and a little work in this process")
	dataDir := fs.String("data", "", "internal: the verifyd data dir a probe reopens")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	if *isProbe {
		if err := probe(*workload, *seed, *dataDir, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: probe: %v\n", err)
			return 1
		}
		return 0
	}
	b, err := newBench(*workload, *seed, *secs, *traceFlag == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp, _ := json.Marshal(b.fingerprint)
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	b.appendLedger(line)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is one run of one workload.
type bench struct {
	workload    string
	seed        uint64
	secs        float64
	traced      bool
	out, tmp    string
	log         io.Writer
	tr          *tracer
	fingerprint map[string]any

	suite *suitePath
	vd    *verifydPath
	ex    *executorPath
	sw    *sweepPath
	extra counter // checks made outside the paths
	// Shares of the machine's CPU time during the measurement that the
	// hypervisor stole, and that went to anyone but this process.
	stealPct, interferePct float64
}

func newBench(workload string, seed uint64, secs float64, traced bool, log io.Writer) (*bench, error) {
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	out = filepath.Join(out, "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload, seed: seed, secs: secs, traced: traced,
		out: out, tmp: tmp, log: log, tr: newTracer(false), fingerprint: fingerprint(),
	}
	b.suite = newSuitePath(seed, b.tr, traced)
	b.vd, err = newVerifydPath(seed, b.tr, tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	b.ex = newExecutorPath(seed, b.tr)
	b.sw = newSweepPath(seed, b.tr)
	return b, nil
}

// paths returns the four paths keyed by workload name.
func (b *bench) paths() map[string]path {
	return map[string]path{
		"verify-suite": b.suite, "verifyd-mixed": b.vd,
		"executor-burst": b.ex, "sweep-tail": b.sw,
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run measures all four paths in interleaved slices: the workload's own
// path gets most of the time, and the other three get a reference share,
// so each run reports every end-to-end metric. In the traced run every
// other slice of the workload's own path is untraced, which gives the
// tracing overhead, and the layer probes run at the end.
func (b *bench) run() (*result, error) {
	if err := gateSelfTest(); err != nil {
		return nil, fmt.Errorf("gate self-test: %w", err)
	}
	// The verifyd data dir is populated before anything is timed: it is
	// the state a restarted daemon recovers.
	if err := b.vd.populate(); err != nil {
		return nil, err
	}
	var metrics []metric
	if !b.traced {
		setupS, rssMB, err := b.coldProbes()
		if err != nil {
			return nil, err
		}
		metrics = append(metrics, metric{"setup_s", setupS, "s"}, metric{"max_rss_mb", rssMB, "MB"})
	}

	paths := b.paths()
	defer func() {
		for _, p := range paths {
			p.close()
		}
	}()
	for _, name := range workloads {
		if err := paths[name].setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	start := time.Now()
	cpu0 := snapCPU()
	if err := b.schedule(paths, start.Add(time.Duration(b.secs*float64(time.Second)))); err != nil {
		return nil, err
	}
	cpu1 := snapCPU()
	// Steal time is the share of CPU time the hypervisor gave to other
	// guests: a busy host slows every metric of the run alike.
	b.stealPct = 100 * float64(cpu1.steal-cpu0.steal) / float64(max(cpu1.total-cpu0.total, 1))
	b.interferePct = 100 * interference(cpu0, cpu1)
	fmt.Fprintf(b.log, "perfbench: %s seed=%d measured for %.1fs (cpu steal %.1f%%, interference %.1f%%)\n",
		b.workload, b.seed, time.Since(start).Seconds(), b.stealPct, b.interferePct)
	for _, name := range workloads {
		fmt.Fprintf(b.log, "  %s\n", paths[name].summary())
	}

	if b.traced {
		b.tr.on = true
		ms, err := b.layerProbes()
		if err != nil {
			return nil, err
		}
		metrics = ms
		for _, name := range workloads {
			metrics = append(metrics, paths[name].layers()...)
		}
		metrics = append(metrics, metric{"trace.overhead_pct", paths[b.workload].overhead(), "%"})
		metrics, err = b.writeTrace(metrics)
		if err != nil {
			return nil, err
		}
	} else {
		for _, name := range workloads {
			metrics = append(metrics, paths[name].e2e()...)
		}
	}

	res := &result{Metrics: map[string]value{}}
	counters := []*counter{&b.extra}
	for _, name := range workloads {
		counters = append(counters, paths[name].counter())
	}
	for _, c := range counters {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, e := range c.errs {
			fmt.Fprintf(b.log, "  FAILED: %s\n", e)
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value (too few samples)", m.name)
		}
		res.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(b.log, "  %-44s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(b.log, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}

// schedule runs slices until the deadline and every path has enough
// samples, each time picking the path furthest below its share of the
// time spent so far.
func (b *bench) schedule(paths map[string]path, deadline time.Time) error {
	spent := map[string]time.Duration{}
	slices := map[string]int{}
	for {
		past := !time.Now().Before(deadline)
		pick, best := "", math.Inf(1)
		for _, name := range workloads {
			if past && paths[name].enough() {
				continue
			}
			share := refWeight[name]
			if name == b.workload {
				share = ownWeight
			}
			if r := spent[name].Seconds() / share; r < best {
				pick, best = name, r
			}
		}
		if pick == "" {
			return nil
		}
		traced := b.traced && (pick != b.workload || slices[pick]%2 == 1)
		b.tr.on = traced
		// Collect the previous slice's garbage now, so that no path pays
		// for another's in its timed calls.
		runtime.GC()
		t0 := time.Now()
		if err := paths[pick].slice(traced, t0.Add(sliceTarget)); err != nil {
			return fmt.Errorf("%s: %w", pick, err)
		}
		spent[pick] += time.Since(t0)
		slices[pick]++
	}
}

// layerProbes runs the per-layer probes of the traced run. The verifyd
// service stays open until its in-process probes have run.
func (b *bench) layerProbes() ([]metric, error) {
	var out []metric
	ms, machines := probeStatespace(b.tr, b.suite.reqs)
	out = append(out, ms...)
	out = append(out, probeMachine(b.tr, machines)...)
	out = append(out, probeRound(b.tr, b.seed)...)
	ms, err := probeCompile(b.tr, b.vd.gen.sources)
	if err != nil {
		return nil, err
	}
	out = append(out, ms...)
	ms, err = probeObligations(b.tr, b.suite.reqs, b.suite.states, b.suite.schedules)
	b.extra.record(err)
	if err != nil {
		return nil, err
	}
	out = append(out, ms...)
	if err := b.vd.probeService(300); err != nil {
		return nil, err
	}
	b.vd.close()
	ms, err = probeStore(b.tr, b.vd.dataDir, b.tmp)
	if err != nil {
		return nil, err
	}
	return append(out, ms...), nil
}

// writeTrace writes the spans and their self-time summary and adds the
// span count to the metrics.
func (b *bench) writeTrace(metrics []metric) ([]metric, error) {
	b.tr.mu.Lock()
	n := len(b.tr.spans)
	b.tr.mu.Unlock()
	metrics = append(metrics, metric{"trace.spans", float64(n), "count"})
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
	sum, err := b.tr.write(path, map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.secs, "fingerprint": b.fingerprint,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: %d spans written to %s; self time by span:\n", n, path)
	for i, s := range sum {
		if i == 12 {
			break
		}
		fmt.Fprintf(b.log, "  %-32s n=%-7d self=%.3fs total=%.3fs\n", s.Name, s.Count, s.SelfS, s.TotalS)
	}
	return metrics, nil
}

// appendLedger keeps every result with its fingerprint, so results
// become a trajectory that names the machine each was measured on.
func (b *bench) appendLedger(line []byte) {
	entry, err := json.Marshal(map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": b.workload, "seed": b.seed,
		"seconds": b.secs, "trace": b.traced, "steal_pct": b.stealPct, "interference_pct": b.interferePct, "fingerprint": b.fingerprint,
		"result": json.RawMessage(line),
	})
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(b.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(b.log, "perfbench: ledger: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(entry, '\n')); err != nil {
		fmt.Fprintf(b.log, "perfbench: ledger: %v\n", err)
	}
}

// probeCount is how many fresh processes a run starts for the cold
// metrics. The suite's set-up includes its first, cold pass and costs
// about a second, so it gets fewer.
func probeCount(workload string) int {
	if workload == "verify-suite" {
		return 4
	}
	return 5
}

// coldProbes runs the workload in fresh processes. Each reports the time
// from its start to the end of set-up — paid by a user who starts the
// program, so work moved into set-up shows — and, after a short fixed
// amount of the workload's own work, its peak resident memory, free of
// the other paths this process measures. setup_s is the median over the
// quieter probes, max_rss_mb the median over all of them.
func (b *bench) coldProbes() (setupS, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var times, rss, shares []float64
	for i := 0; i < probeCount(b.workload); i++ {
		// Each probe reopens its own copy of the populated data dir, so
		// probes neither see nor leave each other's records.
		data := filepath.Join(b.tmp, fmt.Sprintf("probe-%d", i))
		if err := os.CopyFS(data, os.DirFS(b.vd.dataDir)); err != nil {
			return 0, 0, err
		}
		d, share, mb, err := runProbe(exe, "--probe", "--workload", b.workload, "--seed", fmt.Sprint(b.seed), "--data", data)
		if err != nil {
			return 0, 0, err
		}
		shares = append(shares, share)
		times = append(times, d)
		rss = append(rss, mb)
	}
	return median(pick(times, quieter(shares))), median(rss), nil
}

// runProbe starts one probe process and reads its "ready" and "rss"
// lines; share is the interference until "ready".
func runProbe(exe string, args ...string) (setupS, share, rssMB float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, 0, err
	}
	cpu0 := snapCPU()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, 0, err
	}
	r := bufio.NewReader(out)
	ready, rerr := r.ReadString('\n')
	setupS = time.Since(t0).Seconds()
	// The running child's CPU time is not yet in RUSAGE_CHILDREN.
	cpu1 := snapCPU()
	cpu1.own += procCPU(cmd.Process.Pid)
	share = interference(cpu0, cpu1)
	rest, _ := io.ReadAll(r)
	werr := cmd.Wait()
	if err := errors.Join(rerr, werr); err != nil {
		return 0, 0, 0, fmt.Errorf("probe: %w", err)
	}
	if strings.TrimSpace(ready) != "ready" {
		return 0, 0, 0, fmt.Errorf("probe printed %q", ready)
	}
	if _, err := fmt.Sscanf(string(rest), "rss %g", &rssMB); err != nil {
		return 0, 0, 0, fmt.Errorf("probe printed %q: %w", rest, err)
	}
	return setupS, share, rssMB, nil
}

// probeWork is how long a probe runs its workload after set-up (at least
// one unit of work: a suite pass, a block of bursts, one sweep sub-seed).
func probeWork(workload string) time.Duration {
	if workload == "verifyd-mixed" {
		return 500 * time.Millisecond
	}
	return 0
}

// probe is the child side of coldProbes.
func probe(workload string, seed uint64, dataDir string, stdout io.Writer) error {
	var p path
	switch workload {
	case "verify-suite":
		p = newSuitePath(seed, nil, false)
	case "verifyd-mixed":
		p = &verifydPath{dataDir: dataDir, gen: newVDGen(seed), gate: newWireGate()}
	case "executor-burst":
		p = newExecutorPath(seed, nil)
	case "sweep-tail":
		p = newSweepPath(seed, nil)
	}
	if err := p.setup(); err != nil {
		return err
	}
	defer p.close()
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	if err := p.slice(false, time.Now().Add(probeWork(workload))); err != nil {
		return err
	}
	if c := p.counter(); c.failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %v", c.failed, c.attempted, c.errs)
	}
	_, err := fmt.Fprintf(stdout, "rss %g\n", maxRSSMB())
	return err
}
