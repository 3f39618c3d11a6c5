package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// counter tallies operations attempted and failed, keeping the first
// few failure messages for the run's summary.
type counter struct {
	mu                sync.Mutex
	attempted, failed int64
	errs              []string
}

func (c *counter) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// checkVerdict compares a report's verdict with the expected set of
// refuted obligations (nil: every obligation proved).
func checkVerdict(rep *verify.Report, refuted []verify.ObligationID) error {
	if ab := rep.Aborted(); len(ab) > 0 {
		return fmt.Errorf("%s: obligations aborted %v", rep.Policy, ab)
	}
	got := rep.Failed()
	want := append([]verify.ObligationID(nil), refuted...)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s over %s: refuted %v, want %v", rep.Policy, rep.Universe, got, want)
	}
	return nil
}

// reportGate checks in-process verify reports: the verdict must match
// the expectation and the encoded report must be byte-identical to the
// first answer to the same request.
type reportGate struct {
	ref map[int][]byte
}

func newReportGate() *reportGate { return &reportGate{ref: map[int][]byte{}} }

func (g *reportGate) check(req int, rep *verify.Report, refuted []verify.ObligationID) error {
	if err := checkVerdict(rep, refuted); err != nil {
		return err
	}
	data, err := verify.ReportJSON(rep)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	ref, ok := g.ref[req]
	if !ok {
		g.ref[req] = data
		return nil
	}
	if !bytes.Equal(ref, data) {
		return fmt.Errorf("request %d: report bytes differ from the first answer", req)
	}
	return nil
}

// wireGate checks reports received over HTTP, keyed by request class
// (submissions that must yield the same report). The first answer of a
// class is decoded and its verdict checked; every later answer must
// carry byte-identical report bytes.
type wireGate struct {
	mu  sync.Mutex
	ref map[int][]byte
}

func newWireGate() *wireGate { return &wireGate{ref: map[int][]byte{}} }

func (g *wireGate) check(class int, passed *bool, report []byte, refuted []verify.ObligationID) error {
	if passed == nil || len(report) == 0 {
		return fmt.Errorf("class %d: answer without a verdict", class)
	}
	if *passed != (len(refuted) == 0) {
		return fmt.Errorf("class %d: passed=%v, want %v", class, *passed, len(refuted) == 0)
	}
	g.mu.Lock()
	ref, ok := g.ref[class]
	g.mu.Unlock()
	if ok {
		if !bytes.Equal(ref, report) {
			return fmt.Errorf("class %d: report bytes differ from the first answer", class)
		}
		return nil
	}
	rep, err := verify.ReportFromJSON(report)
	if err != nil {
		return fmt.Errorf("class %d: %w", class, err)
	}
	if err := checkVerdict(rep, refuted); err != nil {
		return fmt.Errorf("class %d: %w", class, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ref, ok := g.ref[class]; ok && !bytes.Equal(ref, report) {
		return fmt.Errorf("class %d: report bytes differ from the first answer", class)
	}
	g.ref[class] = append([]byte(nil), report...)
	return nil
}

// checkRuns is the executor gate: every task of a burst ran exactly once.
func checkRuns(runs []int32) error {
	for i, n := range runs {
		if n != 1 {
			return fmt.Errorf("task %d ran %d times", i, n)
		}
	}
	return nil
}

// sweepGate requires a sweep at a fixed seed to reproduce the first
// report's bytes.
type sweepGate struct {
	ref map[string][]byte
}

func newSweepGate() *sweepGate { return &sweepGate{ref: map[string][]byte{}} }

func (g *sweepGate) check(key string, rep *loadgen.Report) error {
	data, err := loadgen.ReportJSON(rep)
	if err != nil {
		return fmt.Errorf("encoding sweep report: %w", err)
	}
	ref, ok := g.ref[key]
	if !ok {
		g.ref[key] = data
		return nil
	}
	if !bytes.Equal(ref, data) {
		return fmt.Errorf("sweep %s: report differs from the first run at the same seed", key)
	}
	return nil
}

// gateSelfTest feeds every gate a corrupted output — a flipped verdict,
// one changed report byte, a dropped and a double-run task, a sweep
// report from another seed — and fails unless each is rejected, so a
// gate that accepts everything cannot go unnoticed.
func gateSelfTest() error {
	u := statespace.Universe{Cores: 2, MaxPerCore: 2, IncludeUnscheduled: true}
	rep := verify.Policy("delta2", func() sched.Policy { return policy.NewDelta2() }, verify.Config{Universe: u})

	rg := newReportGate()
	if err := rg.check(0, rep, nil); err != nil {
		return fmt.Errorf("report gate rejects a correct report: %w", err)
	}
	if err := rg.check(0, rep, nil); err != nil {
		return fmt.Errorf("report gate rejects a repeated report: %w", err)
	}
	flipped := *rep
	flipped.Results = slices.Clone(rep.Results)
	flipped.Results[0].Passed = !flipped.Results[0].Passed
	if rg.check(0, &flipped, nil) == nil {
		return fmt.Errorf("report gate accepts a flipped verdict")
	}

	data, err := verify.ReportJSON(rep)
	if err != nil {
		return err
	}
	passed := true
	wg := newWireGate()
	if err := wg.check(0, &passed, data, nil); err != nil {
		return fmt.Errorf("wire gate rejects a correct report: %w", err)
	}
	changed := slices.Clone(data)
	i := bytes.Index(changed, []byte("states_checked"))
	for changed[i] < '0' || changed[i] > '9' {
		i++
	}
	changed[i] ^= 1 // one digit of a counter
	if wg.check(0, &passed, changed, nil) == nil {
		return fmt.Errorf("wire gate accepts a report with one changed byte")
	}
	failed := false
	if wg.check(1, &failed, data, nil) == nil {
		return fmt.Errorf("wire gate accepts a flipped verdict")
	}

	if checkRuns([]int32{1, 1, 1}) != nil {
		return fmt.Errorf("task gate rejects a correct burst")
	}
	if checkRuns([]int32{1, 0, 1}) == nil {
		return fmt.Errorf("task gate accepts a dropped task")
	}
	if checkRuns([]int32{1, 2, 1}) == nil {
		return fmt.Errorf("task gate accepts a double-run task")
	}

	sg := newSweepGate()
	sweep := func(seed uint64) (*loadgen.Report, error) {
		return loadgen.RunSweep(context.Background(), loadgen.SweepConfig{
			Policies: []string{"delta2"}, Loads: []float64{0.9}, Horizon: 50_000, Seed: seed})
	}
	a, err := sweep(1)
	if err != nil {
		return err
	}
	b, err := sweep(2)
	if err != nil {
		return err
	}
	if err := sg.check("self-test", a); err != nil {
		return fmt.Errorf("sweep gate rejects a correct report: %w", err)
	}
	if sg.check("self-test", b) == nil {
		return fmt.Errorf("sweep gate accepts a report from another seed")
	}
	return nil
}
