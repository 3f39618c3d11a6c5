package verify

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// This file is the sharded verification driver. Every obligation's
// quantifier ("for all machines in the universe") is split into
// shardTotal() disjoint slices via statespace.Universe.EnumerateShard;
// the slices run on a worker pool and their per-shard Results merge
// back into one deterministic Result.
//
// Two properties make the parallel reports byte-identical run to run
// and across parallelism levels:
//
//   - The shard count depends only on the machine (GOMAXPROCS, floored
//     at minShards), never on the configured worker count, so every
//     -parallel level checks exactly the same slices.
//   - A refuted shard records the global enumeration rank of its
//     witness, and the merge keeps the lowest-ranked one — the same
//     witness a sequential scan of the whole universe would have found
//     first. Shards never cancel each other: each runs to its own first
//     witness or to exhaustion, so the merged counters are equal at
//     every parallelism level (including 1) at the price of a
//     fuller sweep on refuted policies.

// minShards keeps the partition real on small machines: even at
// GOMAXPROCS=1 the driver exercises genuine multi-shard merges, and a
// later -parallel 8 run on bigger hardware still has slices to spread.
const minShards = 8

// shardTotal is the per-obligation shard count: GOMAXPROCS, floored at
// minShards. It is deliberately independent of Config.Parallelism (see
// the file comment).
func shardTotal() int {
	if n := runtime.GOMAXPROCS(0); n > minShards {
		return n
	}
	return minShards
}

// shard identifies one slice of the universe partition.
type shard struct {
	index, total int
}

// enumerate walks the shard's slice of u, handing fn each machine with
// its global enumeration rank.
func (s shard) enumerate(u statespace.Universe, fn func(rank int, m *sched.Machine) bool) bool {
	return u.EnumerateShardRank(s.index, s.total, fn)
}

// refute records a refutation found at the given global enumeration
// rank. The merge keeps the witness with the lowest rank, i.e. the
// first one in Enumerate order.
func (r *Result) refute(rank int, witness string) {
	r.Passed = false
	r.Witness = witness
	r.order = rank
}

// shardCheck dispatches one (obligation, shard) task to its checker,
// containing panics: shard tasks run on pool goroutines, where an
// uncaught panic (a crashing checker or policy) would kill the whole
// process — in the daemon, taking every other job with it. A panicking
// shard instead becomes an aborted shard result, which the merge
// propagates as an ABORTED obligation (never cached, so the next
// submission re-runs it).
func shardCheck(ctx context.Context, id ObligationID, f Factory, u statespace.Universe, maxRounds int, sh shard) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			res = Result{
				ID:      id,
				Aborted: true,
				Witness: fmt.Sprintf("aborted: checker panic: %v", p),
			}
		}
	}()
	return rawShardCheck(ctx, id, f, u, maxRounds, sh)
}

// rawShardCheck is the uncontained dispatch. The fault obligations are
// the only consumers of the universe's fault dimension; for the
// steady-state obligations MaxFaults is zeroed, so their verdicts,
// counters and witnesses on a fault-extended universe stay byte-identical
// to the healthy universe's.
func rawShardCheck(ctx context.Context, id ObligationID, f Factory, u statespace.Universe, maxRounds int, sh shard) Result {
	switch id {
	case ObNoTaskLost:
		return checkNoTaskLostShard(ctx, f, u, maxRounds, sh)
	case ObDegradedWastedCores:
		return checkDegradedWastedCoresShard(ctx, f, u, maxRounds, sh)
	}
	u.MaxFaults = 0
	switch id {
	case ObLemma1:
		return checkLemma1Shard(ctx, f, u, sh)
	case ObStealSoundness:
		return checkStealSoundnessShard(ctx, f, u, sh)
	case ObPotentialDecrease:
		return checkPotentialDecreaseShard(ctx, f, u, sh)
	case ObFailureImpliesSucc:
		return checkFailureImpliesSuccessShard(ctx, f, u, sh)
	case ObWorkConservSeq:
		return checkWorkConservationSequentialShard(ctx, f, u, maxRounds, sh)
	case ObWorkConservConc:
		return checkGameShard(ctx, ObWorkConservConc, f, u, orderSuccessors, sh)
	case ObChoiceIndependence:
		return checkGameShard(ctx, ObChoiceIndependence, f, u, choiceSuccessors, sh)
	case ObReactivity:
		return checkReactivityShard(ctx, f, u, sh)
	default:
		panic(fmt.Sprintf("verify: unknown obligation %q", id))
	}
}

// mergeResults folds per-shard results into the obligation's Result:
// counters sum, bounds max, and the verdict follows the report's
// precedence — a conclusive refutation (lowest witness rank wins)
// outranks cancellation, which outranks a pass.
func mergeResults(id ObligationID, parts []Result) Result {
	merged := Result{ID: id, Passed: true}
	refutedRank := -1
	refutedWitness := ""
	abortWitness := ""
	for _, p := range parts {
		merged.StatesChecked += p.StatesChecked
		merged.SchedulesChecked += p.SchedulesChecked
		if p.Bound > merged.Bound {
			merged.Bound = p.Bound
		}
		switch {
		case p.Aborted:
			if abortWitness == "" {
				abortWitness = p.Witness
			}
		case !p.Passed:
			if refutedRank < 0 || p.order < refutedRank {
				refutedRank = p.order
				refutedWitness = p.Witness
			}
		}
	}
	switch {
	case refutedRank >= 0:
		merged.Passed = false
		merged.Witness = refutedWitness
		merged.order = refutedRank
	case abortWitness != "":
		merged.Passed = false
		merged.Aborted = true
		merged.Witness = abortWitness
	}
	return merged
}

// RunObligation checks a single obligation under cfg and returns its
// merged Result — the per-obligation entry point the incremental
// verification service (internal/service) memoizes. It is PolicyContext
// restricted to one obligation: the same shard partition, the same
// deterministic merge, so the Result for an obligation is byte-for-byte
// the entry PolicyContext would put in a full report. cfg.Obligations is
// ignored; cfg.Parallelism governs the shard fan-out exactly as in
// PolicyContext. Panics on unknown obligations, like PolicyContext.
func RunObligation(ctx context.Context, id ObligationID, f Factory, cfg Config) Result {
	return check(ctx, []ObligationID{id}, f, cfg)[0]
}

// check is the one fan-out behind PolicyContext and RunObligation: all
// (obligation, shard) tasks flattened onto one pool of cfg.Parallelism
// workers, so a single expensive obligation saturates every worker once
// the cheap ones drain, then each obligation's shards merged in order.
func check(ctx context.Context, ids []ObligationID, f Factory, cfg Config) []Result {
	for _, id := range ids {
		if !KnownObligation(id) {
			panic(fmt.Sprintf("verify: unknown obligation %q", id))
		}
	}
	u := cfg.universe()
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := shardTotal()
	parts := make([]Result, len(ids)*total)
	forEachTask(len(parts), workers, func(idx int) {
		parts[idx] = shardCheck(ctx, ids[idx/total], f, u, cfg.MaxRounds, shard{idx % total, total})
	})
	results := make([]Result, len(ids))
	for i, id := range ids {
		results[i] = mergeResults(id, parts[i*total:(i+1)*total])
	}
	return results
}

// forEachTask runs fn(i) for i in [0, n) with at most `workers`
// concurrent calls (a semaphore over eagerly spawned goroutines — the
// one worker-pool implementation every parallel driver path shares).
// Each index is handed to exactly one goroutine, so fn needs no locking
// for per-index state. workers=1 serializes the calls (they still hop
// goroutines, but the semaphore orders them happens-before).
func forEachTask(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
