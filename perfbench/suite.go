package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	optsched "repro"
	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// suiteRequest is one Cluster.Verify request of the verify-suite
// workload, with the verdict the paper's claims predict for it.
type suiteRequest struct {
	policy   string
	universe statespace.Universe
	fault    bool                  // a fault-universe request (verify_faults_s)
	refuted  []verify.ObligationID // obligations expected to fail; nil = proved
}

// suiteRequests is the fixed request list. The healthy requests use
// native Go policies; the fault requests use delta2-rescue, which the
// registry compiles from DSL source on every factory call, and delta2
// as its refuted counterpart.
func suiteRequests() []suiteRequest {
	return []suiteRequest{
		{policy: "delta2", universe: statespace.Universe{Cores: 4, MaxPerCore: 3, MaxTotal: 6, IncludeUnscheduled: true}},
		{policy: "weighted", universe: statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, Weights: []int64{1, 2}, IncludeUnscheduled: true}},
		{policy: "hierarchical", universe: statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4, Groups: []int{0, 0, 1, 1}, IncludeUnscheduled: true}},
		{policy: "greedy-buggy", universe: verify.DefaultUniverse(), refuted: []verify.ObligationID{
			verify.ObPotentialDecrease, verify.ObWorkConservConc, verify.ObChoiceIndependence, verify.ObReactivity}},
		{policy: "delta2-rescue", fault: true, universe: statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, MaxFaults: 2}},
		{policy: "delta2", fault: true, universe: statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, MaxFaults: 1},
			refuted: []verify.ObligationID{verify.ObNoTaskLost, verify.ObDegradedWastedCores}},
	}
}

// suitePath drives Cluster.Verify over suiteRequests in a closed loop
// with one caller. Each pass visits every request once, in an order
// drawn from the seed.
type suitePath struct {
	seed      uint64
	tr        *tracer
	tracedRun bool
	reqs      []suiteRequest
	clusters  []*optsched.Cluster // built with WithPolicy, as users do
	timed     []*optsched.Cluster // traced run: the timed registry factories
	gate      *reportGate
	passes    int
	// Counters of the first pass's reports, which every later
	// measurement of the same requests must reproduce.
	states, schedules int

	// Per request, the wall time of each sampled Verify call and the
	// interference during it.
	reqS, reqShares [][]float64
	passesSampled   int
	tagged          [2][]float64 // pass time by tracing state
	// Traced-run instruments: the registry factory wrapped in a timer
	// (passed through WithPolicyFactory, the only difference from the
	// untraced clusters) and the time spent in optsched.New.
	factoryCalls, factoryNs atomic.Int64
	factoryCallsPerPass     []float64
	factorySPerPass         []float64
	newS                    []float64

	ops counter
}

func newSuitePath(seed uint64, tr *tracer, tracedRun bool) *suitePath {
	reqs := suiteRequests()
	return &suitePath{seed: seed, tr: tr, tracedRun: tracedRun, reqs: reqs, gate: newReportGate(),
		reqS: make([][]float64, len(reqs)), reqShares: make([][]float64, len(reqs))}
}

// timedFactory wraps a registry factory exactly as users reach it,
// counting calls and time spent in them.
func (p *suitePath) timedFactory(spec policy.Spec) func() optsched.Policy {
	return func() optsched.Policy {
		t0 := time.Now()
		pol := spec.New(nil)
		p.factoryNs.Add(int64(time.Since(t0)))
		p.factoryCalls.Add(1)
		return pol
	}
}

// build constructs the request clusters, with the factory timer when
// timed.
func (p *suitePath) build(timed bool) ([]*optsched.Cluster, error) {
	cs := make([]*optsched.Cluster, len(p.reqs))
	for i, r := range p.reqs {
		opts := []optsched.Option{optsched.WithUniverse(r.universe), optsched.WithParallelism(2)}
		if timed {
			spec, ok := policy.Lookup(r.policy)
			if !ok {
				return nil, fmt.Errorf("suite: unknown policy %q", r.policy)
			}
			opts = append(opts, optsched.WithPolicyFactory(r.policy, p.timedFactory(spec)))
		} else {
			opts = append(opts, optsched.WithPolicy(r.policy))
		}
		t0 := time.Now()
		c, err := optsched.New(opts...)
		p.newS = append(p.newS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("suite: %w", err)
		}
		cs[i] = c
	}
	return cs, nil
}

// setup builds the clusters and runs the first, cold pass, which is
// about twice as slow as warm ones; its results are gated but not
// sampled.
func (p *suitePath) setup() error {
	var err error
	if p.clusters, err = p.build(false); err != nil {
		return err
	}
	if p.tracedRun {
		if p.timed, err = p.build(true); err != nil {
			return err
		}
	}
	_, _, err = p.pass(p.clusters)
	return err
}

// pass verifies every request once and returns the wall time of each
// call and the interference during it, by request.
func (p *suitePath) pass(clusters []*optsched.Cluster) (times, shares []float64, err error) {
	rng := newRNG(p.seed, fmt.Sprintf("suite-order-%d", p.passes))
	p.passes++
	root := p.tr.begin("suite.pass", spanRef{}, p.tr.newReq())
	defer root.end()
	times, shares = make([]float64, len(p.reqs)), make([]float64, len(p.reqs))
	for _, i := range rng.Perm(len(p.reqs)) {
		r := p.reqs[i]
		sp := p.tr.begin("optsched.Cluster.Verify", root, 0)
		cpu0 := snapCPU()
		t0 := time.Now()
		rep, verr := clusters[i].Verify(context.Background())
		times[i] = time.Since(t0).Seconds()
		shares[i] = interference(cpu0, snapCPU())
		sp.end()
		if verr != nil {
			return nil, nil, fmt.Errorf("suite: verify %s: %w", r.policy, verr)
		}
		for _, res := range rep.Results {
			p.tr.count("verify.states_checked", int64(res.StatesChecked))
			p.tr.count("verify.schedules_checked", int64(res.SchedulesChecked))
		}
		if p.passes == 1 {
			for _, res := range rep.Results {
				p.states += res.StatesChecked
				p.schedules += res.SchedulesChecked
			}
		}
		p.ops.record(p.gate.check(i, rep, r.refuted))
	}
	return times, shares, nil
}

// slice runs passes until the given time, at least one. Traced passes
// use the timed registry factories.
func (p *suitePath) slice(traced bool, until time.Time) error {
	for first := true; first || time.Now().Before(until); first = false {
		clusters := p.clusters
		if traced {
			clusters = p.timed
		}
		c0, ns0 := p.factoryCalls.Load(), p.factoryNs.Load()
		times, shares, err := p.pass(clusters)
		if err != nil {
			return err
		}
		var total float64
		for i, d := range times {
			p.reqS[i] = append(p.reqS[i], d)
			p.reqShares[i] = append(p.reqShares[i], shares[i])
			total += d
		}
		p.passesSampled++
		p.tagged[b2i(traced)] = append(p.tagged[b2i(traced)], total)
		if traced {
			p.factoryCallsPerPass = append(p.factoryCallsPerPass, float64(p.factoryCalls.Load()-c0))
			p.factorySPerPass = append(p.factorySPerPass, float64(p.factoryNs.Load()-ns0)/1e9)
		}
	}
	return nil
}

func (p *suitePath) enough() bool { return p.passesSampled >= 4 }

// e2e sums, over the healthy and over the fault requests, each
// request's median time over its quieter calls.
func (p *suitePath) e2e() []metric {
	var healthy, faults float64
	for i, r := range p.reqs {
		d := median(pick(p.reqS[i], quieter(p.reqShares[i])))
		if r.fault {
			faults += d
		} else {
			healthy += d
		}
	}
	return []metric{
		{"verify_healthy_s", healthy, "s"},
		{"verify_faults_s", faults, "s"},
	}
}

// overhead compares traced with untraced pass times.
func (p *suitePath) overhead() float64 { return overheadPct(p.tagged) }

func (p *suitePath) layers() []metric {
	return []metric{
		{"optsched.new_s", median(p.newS), "s"},
		{"policy.factory_calls", median(p.factoryCallsPerPass), "count"},
		{"policy.factory_s", median(p.factorySPerPass), "s"},
	}
}

func (p *suitePath) summary() string {
	return fmt.Sprintf("verify-suite: %d passes sampled (%d requests each)", p.passesSampled, len(p.reqs))
}

func (p *suitePath) counter() *counter { return &p.ops }

func (p *suitePath) close() {}
