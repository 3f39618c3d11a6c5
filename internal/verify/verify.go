package verify

import (
	"context"

	"repro/internal/statespace"
)

// Version identifies the checker's semantics for content-addressed
// memoization: it is one ingredient of every schedverifyd cache key, so
// cached verdicts can never be replayed across incompatible checkers.
// Bump it whenever any obligation's verdicts, counters, bounds or
// witness text can change — shard-merge changes included, since reports
// are defined to be byte-identical across parallelism levels.
const Version = "optsched-verify/4"

// Config parameterizes a verification run.
type Config struct {
	// Universe is the bounded state space to quantify over.
	Universe statespace.Universe
	// Obligations selects which obligations to check; nil means all.
	Obligations []ObligationID
	// MaxRounds caps sequential convergence loops (safety valve for
	// non-converging policies). Zero means 1000.
	MaxRounds int
	// Parallelism is the worker-pool size shared by all selected
	// obligations: at most this many shard checks run concurrently.
	// Zero means GOMAXPROCS; 1 serializes the checks, so the factory is
	// never called concurrently. The universe is partitioned into
	// exactly the same shards at every level, so the level only changes
	// wall-clock time, never verdicts, counters or witnesses.
	Parallelism int
}

// DefaultUniverse is the bounded universe used when a Config leaves it
// zero: 3 cores, up to 3 threads per core and 5 in total, including
// unscheduled states — it contains every machine discussed in the paper
// (the 0/1/2 counterexample, the two-thieves conflict) while keeping the
// adversarial game graph small enough for exhaustive exploration.
func DefaultUniverse() statespace.Universe {
	return statespace.Universe{
		Cores:              3,
		MaxPerCore:         3,
		MaxTotal:           5,
		IncludeUnscheduled: true,
	}
}

// AllObligations lists every obligation in report order.
func AllObligations() []ObligationID {
	return []ObligationID{
		ObLemma1,
		ObStealSoundness,
		ObPotentialDecrease,
		ObFailureImpliesSucc,
		ObWorkConservSeq,
		ObWorkConservConc,
		ObChoiceIndependence,
		ObReactivity,
		ObNoTaskLost,
		ObDegradedWastedCores,
	}
}

// Policy verifies the policy produced by f against the paper's proof
// obligations over the configured bounded universe and returns the full
// report. This is the library's analogue of running the paper's Leon
// pipeline on a DSL policy.
//
// Policy is PolicyContext with Parallelism 1, preserving this entry
// point's original contract (f is never called concurrently); use
// PolicyContext for the parallel, cancellable variant.
func Policy(name string, f Factory, cfg Config) *Report {
	cfg.Parallelism = 1
	rep, _ := PolicyContext(context.Background(), name, f, cfg)
	return rep
}

// PolicyContext is Policy with cancellation and parallelism. Each
// selected obligation's universe is partitioned into shardTotal()
// disjoint slices (statespace.Universe.EnumerateShard), and all
// (obligation, shard) tasks drain through one worker pool of
// cfg.Parallelism goroutines — so a single expensive obligation
// saturates every worker instead of hogging one goroutine while the
// other seven finish early. Unless cfg.Parallelism is 1, shard checks
// run concurrently and f must be safe for concurrent calls; every
// registered and DSL-compiled factory is, since each call constructs a
// fresh policy.
//
// The parallelism level never changes the report: the shard partition is
// fixed per machine, every shard runs to its own first witness or to
// exhaustion, and merging keeps the witness a sequential whole-universe
// scan would find first. Verdicts, counters and witnesses are
// byte-identical at every Parallelism.
//
// On cancellation the returned report is partial — obligations cut short
// are marked failed with an "aborted" witness — and the returned error
// is ctx.Err(). A nil error means every selected obligation ran to
// completion (even if ctx was cancelled just after the suite finished).
func PolicyContext(ctx context.Context, name string, f Factory, cfg Config) (*Report, error) {
	obligations := cfg.Obligations
	if obligations == nil {
		obligations = AllObligations()
	}
	rep := &Report{
		Policy:   name,
		Universe: cfg.universe().String(),
		Results:  check(ctx, obligations, f, cfg),
	}
	return rep, rep.abortErr(ctx)
}

// universe is cfg.Universe, or DefaultUniverse when it is zero.
func (cfg Config) universe() statespace.Universe {
	if cfg.Universe.Cores == 0 {
		return DefaultUniverse()
	}
	return cfg.Universe
}

// abortErr returns ctx's error iff cancellation actually cut an
// obligation short; a suite that completed just before cancellation is
// a full result and reports no error.
func (r *Report) abortErr(ctx context.Context) error {
	if len(r.Aborted()) == 0 {
		return nil
	}
	return ctx.Err()
}

// KnownObligation reports whether id names a checkable obligation.
func KnownObligation(id ObligationID) bool {
	for _, known := range AllObligations() {
		if id == known {
			return true
		}
	}
	return false
}

// aborted reports whether ctx is done and, if so, marks res as aborted:
// not passed, with the cancellation as the witness. Checks poll it
// every 64 enumerated states *and* every 64 adversarial schedules
// (ctx.Err takes a mutex, and concurrent shard checks would otherwise
// contend on it in their hottest loops) — the schedule-level poll
// matters because one state fans out to NumCores()! orders, which would
// otherwise multiply cancellation latency by that factor.
func aborted(ctx context.Context, res *Result) bool {
	if ctx.Err() == nil {
		return false
	}
	res.Passed = false
	res.Aborted = true
	res.Witness = "aborted: " + ctx.Err().Error()
	return true
}
