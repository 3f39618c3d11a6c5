package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/loadgen"
)

const (
	// sweepHorizon is the arrival window of one point in ticks; each
	// point drains for another half horizon.
	sweepHorizon = 1_000_000
	// sweepSeeds is how many sub-seeds a run cycles through: the
	// heavy-tailed service law makes one point's cost vary with its
	// seed, so a run reports the mean over its sub-seeds. It is odd so
	// that alternating traced and untraced slices reach every sub-seed.
	sweepSeeds = 11
	sweepLow   = 0.65
	sweepHigh  = 0.9
)

// sweepPath runs loadgen.RunSweep for delta2 and weighted at one low
// and one high load, with the default Poisson arrivals, bounded-Pareto
// service and malleable jobs. A unit sweeps one sub-seed at both loads;
// units cycle through the sub-seeds, and a sub-seed's first reports are
// the reference its later runs must match byte for byte.
type sweepPath struct {
	tr    *tracer
	seeds []uint64
	gate  *sweepGate
	units int

	lowBy, highBy       [][]float64 // per sub-seed point times
	shareBy             [][]float64 // per sub-seed interference of each unit
	tagged              [2][]float64
	lowTotal, highTotal float64
	lowTicks, highTicks float64
	steals, stealFails  int64
	backlog             int64
	ops                 counter
}

func newSweepPath(seed uint64, tr *tracer) *sweepPath {
	rng := newRNG(seed, "sweep")
	p := &sweepPath{tr: tr, gate: newSweepGate(),
		lowBy: make([][]float64, sweepSeeds), highBy: make([][]float64, sweepSeeds),
		shareBy: make([][]float64, sweepSeeds)}
	for i := 0; i < sweepSeeds; i++ {
		p.seeds = append(p.seeds, rng.Uint64()|1)
	}
	return p
}

func sweepConfig(load float64, seed uint64, horizon int64) loadgen.SweepConfig {
	return loadgen.SweepConfig{
		Policies: []string{"delta2", "weighted"},
		Loads:    []float64{load},
		Horizon:  horizon,
		Seed:     seed,
	}
}

// setup validates the configuration with one short untimed sweep.
func (p *sweepPath) setup() error {
	_, err := loadgen.RunSweep(context.Background(), sweepConfig(sweepHigh, p.seeds[0], sweepHorizon/10))
	return err
}

// point runs one (load, seed) sweep and gates its report.
func (p *sweepPath) point(parent spanRef, load float64, seed uint64) (float64, *loadgen.Report, error) {
	sp := p.tr.begin("loadgen.RunSweep", parent, 0)
	t0 := time.Now()
	rep, err := loadgen.RunSweep(context.Background(), sweepConfig(load, seed, sweepHorizon))
	d := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return 0, nil, err
	}
	for _, c := range rep.Policies {
		p.tr.count("loadgen.jobs_completed", c.Points[0].JobsCompleted)
	}
	p.ops.record(p.gate.check(fmt.Sprintf("load=%v seed=%d", load, seed), rep))
	return d, rep, nil
}

// unit sweeps the next sub-seed at both loads.
func (p *sweepPath) unit(traced bool) error {
	k := p.units % len(p.seeds)
	first := p.units < len(p.seeds)
	p.units++
	root := p.tr.begin("sweep.unit", spanRef{}, p.tr.newReq())
	defer root.end()
	cpu0 := snapCPU()
	dl, _, err := p.point(root, sweepLow, p.seeds[k])
	if err != nil {
		return err
	}
	dh, rep, err := p.point(root, sweepHigh, p.seeds[k])
	if err != nil {
		return err
	}
	p.shareBy[k] = append(p.shareBy[k], interference(cpu0, snapCPU()))
	p.lowBy[k] = append(p.lowBy[k], dl)
	p.highBy[k] = append(p.highBy[k], dh)
	p.tagged[b2i(traced)] = append(p.tagged[b2i(traced)], dh)
	// Each point simulates 1.5 horizons for each of the two policies.
	ticks := 2 * 1.5 * float64(sweepHorizon)
	p.lowTotal += dl
	p.highTotal += dh
	p.lowTicks += ticks
	p.highTicks += ticks
	if first {
		for _, c := range rep.Policies {
			pt := c.Points[0]
			p.steals += pt.Steals
			p.stealFails += pt.StealFails
			p.backlog += pt.JobsArrived - pt.JobsCompleted
		}
	}
	return nil
}

// slice runs units until the given time, at least one.
func (p *sweepPath) slice(traced bool, until time.Time) error {
	for first := true; first || time.Now().Before(until); first = false {
		if err := p.unit(traced); err != nil {
			return err
		}
	}
	return nil
}

// enough requires every sub-seed twice, so each report was checked
// against a second run at its seed.
func (p *sweepPath) enough() bool { return p.units >= 2*len(p.seeds) }

// meanOfMedians averages the per-sub-seed medians, each over the
// sub-seed's quieter units.
func (p *sweepPath) meanOfMedians(by [][]float64) float64 {
	var sum float64
	for k, xs := range by {
		sum += median(pick(xs, quieter(p.shareBy[k])))
	}
	return sum / float64(len(by))
}

func (p *sweepPath) e2e() []metric {
	return []metric{
		{"sweep_low_s", p.meanOfMedians(p.lowBy), "s"},
		{"sweep_high_s", p.meanOfMedians(p.highBy), "s"},
	}
}

// overhead compares traced with untraced high-load point times.
func (p *sweepPath) overhead() float64 { return overheadPct(p.tagged) }

func (p *sweepPath) layers() []metric {
	return []metric{
		{"sim.ticks_per_s.low", p.lowTicks / p.lowTotal, "1/s"},
		{"sim.ticks_per_s.high", p.highTicks / p.highTotal, "1/s"},
		{"sim.steals", float64(p.steals), "count"},
		{"sim.steal_fails", float64(p.stealFails), "count"},
		{"loadgen.backlog_end", float64(p.backlog), "count"},
	}
}

func (p *sweepPath) summary() string {
	return fmt.Sprintf("sweep-tail: %d units over %d sub-seeds", p.units, len(p.seeds))
}

func (p *sweepPath) counter() *counter { return &p.ops }

func (p *sweepPath) close() {}
