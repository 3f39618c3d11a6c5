package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
)

const (
	// spinIters is the fixed CPU work of one task (a few microseconds).
	spinIters = 4000
	// burstDeadline bounds one burst: a task not run by then is lost (a
	// failed operation), and the pool is abandoned.
	burstDeadline = 5 * time.Second
	// blockBursts is how many consecutive bursts share one pool and
	// policy before the other half takes over.
	blockBursts = 16
)

// spinSink keeps the task work observable so the compiler cannot drop it.
var spinSink atomic.Uint64

func spin(x uint64) {
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x & 1)
}

// executorPath drives engine.Pool with 2 workers from one submitter: a
// burst of tasks goes to worker 0 with SubmitTo, and Wait ends it. Half
// the bursts run delta2; the other half run delta2-rescue with churn:
// a few tasks on worker 1, Kill(1) mid-burst, SubmitTo(1) while worker
// 1 is offline, and Revive(1) before Wait. Tasks submitted to the
// offline worker are stranded until Revive and show up as wait.
type executorPath struct {
	tr     *tracer
	rng    *rand.Rand
	bursts int

	samples            []exSample
	tagged             [2][]float64 // per-block time per task by tracing state
	blocks             int          // started, set-up included
	tasks              int64
	waits              []float64 // submit→start, traced run only
	submitNs           []float64
	steals, stealFails int64
	rescued, orphaned  int64
	stampWaits         bool
	ops                counter
}

// exSample is what one slice measured: each burst's time, the tasks
// run and the time spent in bursts, and the interference meanwhile.
type exSample struct {
	share  float64
	bursts []float64
	tasks  int64
	busy   float64
}

func newExecutorPath(seed uint64, tr *tracer) *executorPath {
	return &executorPath{tr: tr, rng: newRNG(seed, "executor")}
}

func factoryFor(name string) (engine.Factory, error) {
	spec, ok := policy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("executor: unknown policy %q", name)
	}
	return func() sched.Policy { return spec.New(nil) }, nil
}

// setup runs one untimed block of bursts of each kind.
func (p *executorPath) setup() error {
	for i := 0; i < 2; i++ {
		if err := p.block(nil); err != nil {
			return err
		}
	}
	return nil
}

// block runs blockBursts bursts on a fresh pool; blocks alternate
// between the healthy and the churn half. sample receives each burst's
// time; nil discards it.
func (p *executorPath) block(sample func(d float64, tasks int)) error {
	churn := p.blocks%2 == 1
	p.blocks++
	name := "delta2"
	if churn {
		name = "delta2-rescue"
	}
	f, err := factoryFor(name)
	if err != nil {
		return err
	}
	pool := engine.NewPool(2, f, engine.Options{})
	healthy := true
	defer func() {
		if healthy {
			st := pool.Stats()
			p.steals += st.Steals
			p.stealFails += st.StealFails
			p.rescued += st.Rescued
		}
		pool.Close()
	}()
	for i := 0; i < blockBursts; i++ {
		p.bursts++
		d, tasks, err := p.burst(pool, churn)
		p.ops.record(err)
		if err != nil {
			// The pool may hold a stranded task; never reuse it.
			healthy = false
			return nil
		}
		if sample != nil {
			sample(d, tasks)
		}
	}
	return nil
}

// burst submits one burst and waits for it.
func (p *executorPath) burst(pool *engine.Pool, churn bool) (float64, int, error) {
	n := 64 + p.rng.IntN(449)
	runs := make([]int32, n)
	var stamps []int64
	if p.stampWaits && p.bursts%2 == 0 {
		// Every other burst: the stamps would inflate engine.submit_ns,
		// which the unstamped bursts measure.
		stamps = make([]int64, 2*n)
	}
	base := time.Now()
	task := func(i int) engine.Task {
		x := p.rng.Uint64() | 1
		return func() {
			if stamps != nil {
				stamps[2*i+1] = int64(time.Since(base))
			}
			spin(x)
			atomic.AddInt32(&runs[i], 1)
		}
	}
	tasks := make([]engine.Task, n)
	for i := range tasks {
		tasks[i] = task(i)
	}
	killAt, pre, offline := -1, 0, 0
	if churn {
		killAt = n/4 + p.rng.IntN(n/2)
		pre = 2 + p.rng.IntN(4)
		offline = 2 + p.rng.IntN(7)
	}
	submit := func(w, i int) {
		if stamps != nil {
			stamps[2*i] = int64(time.Since(base))
		}
		pool.SubmitTo(w, tasks[i])
	}

	sp := p.tr.begin("engine.burst", spanRef{}, p.tr.newReq())
	defer sp.end()
	t0 := time.Now()
	i := 0
	for ; i < pre; i++ {
		submit(1, i)
	}
	for ; i < n-offline; i++ {
		if i == killAt {
			if err := pool.Kill(1); err != nil {
				return 0, 0, err
			}
			p.tr.count("engine.kills", 1)
			for j := 0; j < offline; j++ {
				submit(1, n-offline+j)
			}
			p.orphaned = max(p.orphaned, pool.Stats().Orphaned)
		}
		submit(0, i)
	}
	if churn {
		if err := pool.Revive(1); err != nil {
			return 0, 0, err
		}
	} else if stamps == nil {
		p.submitNs = append(p.submitNs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	done := make(chan struct{})
	go func() {
		pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(burstDeadline):
		return 0, 0, fmt.Errorf("burst %d: tasks not run within %v (orphaned=%d)", p.bursts, burstDeadline, pool.Stats().Orphaned)
	}
	d := time.Since(t0).Seconds()
	p.tr.count("engine.tasks", int64(n))
	if err := checkRuns(runs); err != nil {
		return 0, 0, fmt.Errorf("burst %d: %w", p.bursts, err)
	}
	for j := 0; stamps != nil && j < n; j++ {
		p.waits = append(p.waits, float64(stamps[2*j+1]-stamps[2*j])/1e9)
	}
	return d, n, nil
}

// slice runs blocks of bursts until the given time, at least one;
// traced bursts stamp per-task waits.
func (p *executorPath) slice(traced bool, until time.Time) error {
	p.stampWaits = traced
	var sm exSample
	cpu0 := snapCPU()
	for first := true; first || time.Now().Before(until); first = false {
		var busy float64
		var tasks int
		sample := func(d float64, n int) {
			sm.bursts = append(sm.bursts, d)
			p.tasks += int64(n)
			busy += d
			tasks += n
		}
		if err := p.block(sample); err != nil {
			return err
		}
		if tasks > 0 {
			p.tagged[b2i(traced)] = append(p.tagged[b2i(traced)], busy/float64(tasks))
			sm.tasks += int64(tasks)
			sm.busy += busy
		}
	}
	sm.share = interference(cpu0, snapCPU())
	p.samples = append(p.samples, sm)
	return nil
}

// quiet pools the bursts of the quieter slices and gives their tasks
// per second of burst time.
func (p *executorPath) quiet() (bursts []float64, rate float64) {
	shares := make([]float64, len(p.samples))
	for i, sm := range p.samples {
		shares[i] = sm.share
	}
	var tasks int64
	var busy float64
	for _, sm := range pick(p.samples, quieter(shares)) {
		bursts = append(bursts, sm.bursts...)
		tasks += sm.tasks
		busy += sm.busy
	}
	return bursts, float64(tasks) / busy
}

func (p *executorPath) e2e() []metric {
	bursts, rate := p.quiet()
	return []metric{
		{"executor_tasks_per_s", rate, "1/s"},
		{"executor_burst_p50_s", median(bursts), "s"},
		{"executor_burst_p90_s", quantile(bursts, 0.9), "s"},
	}
}

// enough requires four slices and a sampled block of each half.
func (p *executorPath) enough() bool {
	var n int
	for _, sm := range p.samples {
		n += len(sm.bursts)
	}
	return len(p.samples) >= 4 && n >= 2*blockBursts
}

// overhead compares traced with untraced time per task.
func (p *executorPath) overhead() float64 { return overheadPct(p.tagged) }

func (p *executorPath) layers() []metric {
	return []metric{
		{"engine.submit_ns", median(p.submitNs), "ns"},
		{"engine.wait_p50_s", median(p.waits), "s"},
		{"engine.wait_p99_s", quantile(p.waits, 0.99), "s"},
		{"engine.wait_max_s", slices.Max(p.waits), "s"},
		{"engine.steals", float64(p.steals), "count"},
		{"engine.steal_fails", float64(p.stealFails), "count"},
		{"engine.steal_fail_ratio", float64(p.stealFails) / float64(max(p.steals+p.stealFails, 1)), "ratio"},
		{"engine.rescued", float64(p.rescued), "count"},
		{"engine.orphaned_max", float64(p.orphaned), "count"},
	}
}

func (p *executorPath) summary() string {
	bursts, _ := p.quiet()
	return fmt.Sprintf("executor-burst: %d slices, %d tasks; %d bursts in the quieter slices", len(p.samples), p.tasks, len(bursts))
}

func (p *executorPath) counter() *counter { return &p.ops }

func (p *executorPath) close() {}
