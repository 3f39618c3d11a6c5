package verify

import (
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// Factory produces a fresh policy instance per check, isolating any
// per-round caches (sched.RoundObserver state) between runs. Checks
// fan out over universe shards on a worker pool, so a factory must be
// safe for concurrent calls; every registered and DSL-compiled factory
// is, since each call constructs a fresh policy. A caller whose factory
// is not concurrency-safe must go through Policy, or set
// Config.Parallelism to 1, which serializes every shard check (and
// produces the identical report).
type Factory func() sched.Policy

// beginRound refreshes a policy's cached round statistics when it
// observes rounds; a no-op otherwise.
func beginRound(p sched.Policy, view *sched.Machine) {
	if obs, ok := p.(sched.RoundObserver); ok {
		obs.BeginRound(view)
	}
}

// checkLemma1Shard checks Listing 2 over every state of the universe and every
// idle thief:
//
//	(∃ overloaded core  ⇒  ∃ core the thief can steal from)  ∧
//	(∀ cores c: thief.canSteal(c) ⇒ overloaded(c))
//
// The paper proves this with Leon for the sequential setting; here it is
// established by exhaustion up to the universe bound.
func checkLemma1Shard(ctx context.Context, f Factory, u statespace.Universe, sh shard) Result {
	res := Result{ID: ObLemma1, Passed: true}
	sh.enumerate(u, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(ctx, &res) {
			return false
		}
		res.StatesChecked++
		p := f()
		beginRound(p, m)
		for _, thief := range m.Cores {
			if !thief.Idle() {
				continue // Lemma 1's @require: the thief is idle
			}
			hasOverloaded, hasCandidate := false, false
			for _, c := range m.Cores {
				if c.ID == thief.ID {
					continue
				}
				if c.Overloaded() {
					hasOverloaded = true
				}
				if p.CanSteal(thief, c) {
					hasCandidate = true
					if !c.Overloaded() {
						res.refute(rank, fmt.Sprintf(
							"state %v: idle thief c%d may steal from non-overloaded c%d",
							m.Loads(), thief.ID, c.ID))
						return false
					}
				}
			}
			if hasOverloaded && !hasCandidate {
				res.refute(rank, fmt.Sprintf(
					"state %v (key %s): idle thief c%d has no candidate despite an overloaded core",
					m.Loads(), m.Key(), thief.ID))
				return false
			}
		}
		return true
	})
	return res
}

// checkStealSoundnessShard checks the §4.2 obligations on the stealing phase,
// over every state and every (thief, stealee) pair admitted by the
// filter:
//
//   - the steal succeeds (an admitted selection is realizable when no
//     concurrent steal interferes);
//   - the stealee does not end up idle ("does not steal too much");
//   - the thread population and structural invariants are preserved.
func checkStealSoundnessShard(ctx context.Context, f Factory, u statespace.Universe, sh shard) Result {
	res := Result{ID: ObStealSoundness, Passed: true}
	sh.enumerate(u, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(ctx, &res) {
			return false
		}
		res.StatesChecked++
		p := f()
		beginRound(p, m)
		for ti := range m.Cores {
			for si := range m.Cores {
				if ti == si {
					continue
				}
				if !p.CanSteal(m.Core(ti), m.Core(si)) {
					continue
				}
				trial := m.Clone()
				pt := f()
				beginRound(pt, trial)
				att := sched.Attempt{Thief: ti, Victim: si}
				sched.Steal(pt, trial, &att)
				if bad := stealViolation(m, trial, &att, ti, si); bad != "" {
					res.refute(rank, bad)
					return false
				}
			}
		}
		return true
	})
	return res
}

func stealViolation(before, after *sched.Machine, att *sched.Attempt, ti, si int) string {
	if !att.Succeeded() {
		return fmt.Sprintf("state %v: admitted steal c%d<-c%d failed in isolation (%v)",
			before.Loads(), ti, si, att.Reason)
	}
	if after.Core(si).Idle() {
		return fmt.Sprintf("state %v: steal c%d<-c%d emptied the stealee",
			before.Loads(), ti, si)
	}
	if after.TotalThreads() != before.TotalThreads() {
		return fmt.Sprintf("state %v: steal c%d<-c%d changed thread population %d->%d",
			before.Loads(), ti, si, before.TotalThreads(), after.TotalThreads())
	}
	if err := after.Validate(); err != nil {
		return fmt.Sprintf("state %v: steal c%d<-c%d corrupted the machine: %v",
			before.Loads(), ti, si, err)
	}
	return ""
}

// checkPotentialDecreaseShard checks the §4.3 bounded-successes obligation:
// every steal the filter admits strictly decreases the pairwise imbalance
// d, over every state and admitted pair. A policy failing this has
// unbounded steal sequences available (the GreedyBuggy ping-pong).
func checkPotentialDecreaseShard(ctx context.Context, f Factory, u statespace.Universe, sh shard) Result {
	res := Result{ID: ObPotentialDecrease, Passed: true}
	sh.enumerate(u, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(ctx, &res) {
			return false
		}
		res.StatesChecked++
		p := f()
		beginRound(p, m)
		for ti := range m.Cores {
			for si := range m.Cores {
				if ti == si || !p.CanSteal(m.Core(ti), m.Core(si)) {
					continue
				}
				trial := m.Clone()
				pt := f()
				beginRound(pt, trial)
				before := sched.PairwiseImbalance(pt, trial)
				att := sched.Attempt{Thief: ti, Victim: si}
				sched.Steal(pt, trial, &att)
				if !att.Succeeded() {
					continue // soundness check reports this separately
				}
				if after := sched.PairwiseImbalance(pt, trial); after >= before {
					res.refute(rank, fmt.Sprintf(
						"state %v: steal c%d<-c%d left potential %d -> %d (no strict decrease)",
						m.Loads(), ti, si, before, after))
					return false
				}
			}
		}
		return true
	})
	return res
}

// checkFailureImpliesSuccessShard checks the first §4.3 concurrency
// obligation: in every concurrent round, under every adversarial steal
// order, every re-validation failure is explained by an earlier
// successful steal involving the failed attempt's thief or victim. The
// argument in the paper: only the stealing phase mutates runqueues, so a
// filter that flipped between selection and steal must have been flipped
// by a completed steal.
func checkFailureImpliesSuccessShard(ctx context.Context, f Factory, u statespace.Universe, sh shard) Result {
	res := Result{ID: ObFailureImpliesSucc, Passed: true}
	sh.enumerate(u, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(ctx, &res) {
			return false
		}
		res.StatesChecked++
		ok := statespace.Permutations(m.NumCores(), func(order []int) bool {
			// Each state fans out to NumCores()! orders, so polling only
			// per state would stretch cancellation latency by that factor
			// on wide universes; poll per schedule at the same stride.
			if res.SchedulesChecked&63 == 0 && aborted(ctx, &res) {
				return false
			}
			res.SchedulesChecked++
			trial := m.Clone()
			rr := sched.ConcurrentRound(f(), trial, order)
			for _, att := range rr.Attempts {
				if att.Reason == sched.FailRevalidation && !att.PredecessorSuccess {
					res.refute(rank, fmt.Sprintf(
						"state %v order %v: c%d's failed steal from c%d has no predecessor success",
						m.Loads(), order, att.Thief, att.Victim))
					return false
				}
			}
			return true
		})
		return ok
	})
	return res
}
