package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service/store"
	"repro/internal/verify"
)

// Layer probes for the traced run. Each times the benchmark's own calls
// into one layer's public functions, over inputs taken from the
// workloads: the suite's universes, the verifyd edit sources and the
// store records the verifyd run wrote.

const layerReps = 5

// probeStatespace enumerates every shard of each suite universe with no
// checker attached, and returns the enumerated machines.
func probeStatespace(tr *tracer, reqs []suiteRequest) ([]metric, []*sched.Machine) {
	const shards = 8
	var times []float64
	var states int
	var machines []*sched.Machine
	for rep := 0; rep < layerReps; rep++ {
		sp := tr.begin("statespace.EnumerateShard", spanRef{}, tr.newReq())
		n := 0
		t0 := time.Now()
		for _, r := range reqs {
			for s := 0; s < shards; s++ {
				r.universe.EnumerateShard(s, shards, func(m *sched.Machine) bool {
					n++
					if rep == 0 {
						machines = append(machines, m)
					}
					return true
				})
			}
		}
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		states = n
	}
	return []metric{
		{"statespace.enumerate_s", median(times), "s"},
		{"statespace.states", float64(states), "count"},
	}, machines
}

var (
	cloneSink *sched.Machine
	keySink   string
)

// probeMachine times Machine.Clone and Machine.Key per call over the
// suite's enumerated states.
func probeMachine(tr *tracer, machines []*sched.Machine) []metric {
	var clone, key []float64
	for rep := 0; rep < layerReps; rep++ {
		sp := tr.begin("sched.Machine.Clone", spanRef{}, tr.newReq())
		t0 := time.Now()
		for _, m := range machines {
			cloneSink = m.Clone()
		}
		clone = append(clone, float64(time.Since(t0).Nanoseconds())/float64(len(machines)))
		sp.end()
		sp = tr.begin("sched.Machine.Key", spanRef{}, tr.newReq())
		t0 = time.Now()
		for _, m := range machines {
			keySink = m.Key()
		}
		key = append(key, float64(time.Since(t0).Nanoseconds())/float64(len(machines)))
		sp.end()
	}
	return []metric{
		{"sched.clone_ns", median(clone), "ns"},
		{"sched.key_ns", median(key), "ns"},
	}
}

// probeRound times sched.ConcurrentRound with delta2 on 8-core machines
// holding about 1 (shallow) or about 64 (deep) queued tasks per core.
func probeRound(tr *tracer, seed uint64) []metric {
	var out []metric
	for _, shape := range []struct {
		name     string
		min, max int // threads per core
		calls    int
	}{{"shallow", 0, 4, 512}, {"deep", 48, 81, 128}} {
		rng := newRNG(seed, "round-"+shape.name)
		templates := make([]*sched.Machine, 16)
		for i := range templates {
			loads := make([]int, 8)
			for c := range loads {
				loads[c] = shape.min + rng.IntN(shape.max-shape.min)
			}
			templates[i] = sched.MachineFromLoads(loads...)
		}
		order := rng.Perm(8)
		pol := policy.NewDelta2()
		var times []float64
		for rep := 0; rep < layerReps; rep++ {
			ms := make([]*sched.Machine, shape.calls)
			for i := range ms {
				ms[i] = templates[i%len(templates)].Clone()
			}
			sp := tr.begin("sched.ConcurrentRound", spanRef{}, tr.newReq())
			t0 := time.Now()
			for _, m := range ms {
				sched.ConcurrentRound(pol, m, order)
			}
			times = append(times, float64(time.Since(t0).Nanoseconds())/float64(len(ms)))
			sp.end()
		}
		out = append(out, metric{"sched.round_ns." + shape.name, median(times), "ns"})
	}
	return out
}

// probeCompile times dsl.CompileSource on the registry's delta2-rescue
// source and on the verifyd edit sources.
func probeCompile(tr *tracer, sources []string) ([]metric, error) {
	spec, ok := policy.Lookup("delta2-rescue")
	if !ok || spec.DSL == "" {
		return nil, fmt.Errorf("compile probe: delta2-rescue has no DSL source")
	}
	srcs := append([]string{spec.DSL}, sources...)
	var times []float64
	for rep := 0; rep < layerReps; rep++ {
		for _, src := range srcs {
			sp := tr.begin("dsl.CompileSource", spanRef{}, tr.newReq())
			t0 := time.Now()
			_, _, err := dsl.CompileSource(src)
			times = append(times, time.Since(t0).Seconds())
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("compile probe: %w", err)
			}
		}
	}
	return []metric{{"dsl.compile_s", median(times), "s"}}, nil
}

// probeObligations runs verify.RunObligation for every obligation of
// every suite request, summing each obligation's time over the suite.
// Its counters must equal those of the suite's Cluster.Verify reports.
func probeObligations(tr *tracer, reqs []suiteRequest, wantStates, wantSchedules int) ([]metric, error) {
	ids := verify.AllObligations()
	times := make(map[verify.ObligationID][]float64)
	var states, schedules int
	for rep := 0; rep < 3; rep++ {
		root := tr.begin("verify.suite", spanRef{}, tr.newReq())
		sum := make(map[verify.ObligationID]float64)
		states, schedules = 0, 0
		for _, r := range reqs {
			spec, ok := policy.Lookup(r.policy)
			if !ok {
				return nil, fmt.Errorf("obligation probe: unknown policy %q", r.policy)
			}
			f := func() sched.Policy { return spec.New(nil) }
			cfg := verify.Config{Universe: r.universe, Parallelism: 2}
			for _, id := range ids {
				sp := tr.begin("verify.RunObligation", root, 0)
				t0 := time.Now()
				res := verify.RunObligation(context.Background(), id, f, cfg)
				sum[id] += time.Since(t0).Seconds()
				sp.end()
				states += res.StatesChecked
				schedules += res.SchedulesChecked
			}
		}
		root.end()
		for id, s := range sum {
			times[id] = append(times[id], s)
		}
	}
	if states != wantStates || schedules != wantSchedules {
		return nil, fmt.Errorf("obligation probe: counted %d states / %d schedules, the suite reports %d / %d",
			states, schedules, wantStates, wantSchedules)
	}
	var out []metric
	for _, id := range ids {
		out = append(out, metric{"verify.obligation_s." + string(id), median(times[id]), "s"})
	}
	return append(out,
		metric{"verify.states_checked", float64(states), "count"},
		metric{"verify.schedules_checked", float64(schedules), "count"}), nil
}

// probeStore times store recovery over the verifyd run's data dir, and
// fsynced appends of its records replayed into a fresh store.
func probeStore(tr *tracer, dataDir, tmp string) ([]metric, error) {
	var recoverS []float64
	var records int
	var entries map[string]verify.Result
	for rep := 0; rep < layerReps; rep++ {
		sp := tr.begin("store.Open", spanRef{}, tr.newReq())
		t0 := time.Now()
		st, es, err := store.Open(dataDir, store.Options{})
		recoverS = append(recoverS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
		records = st.Stats().RecoveredRecords
		entries = es
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("store probe: the verifyd data dir holds no records")
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	var appendS []float64
	for i := 0; i < 1000; i++ {
		k := keys[i%len(keys)]
		sp := tr.begin("store.Append", spanRef{}, tr.newReq())
		t0 := time.Now()
		err := st.Append(k, entries[k])
		appendS = append(appendS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	return []metric{
		{"store.append_p50_s", median(appendS), "s"},
		{"store.append_p99_s", quantile(appendS, 0.99), "s"},
		{"store.recover_s", median(recoverS), "s"},
		{"store.wal_records", float64(records), "count"},
	}, nil
}
