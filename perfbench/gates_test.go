package main

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/dsl"
	"repro/internal/verify"
)

// heldOutSeed is reserved for confirming performance claims: it is not
// used while a change is written (see README.md).
const heldOutSeed = 1000003

func TestGatesRejectCorruptedOutputs(t *testing.T) {
	if err := gateSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// suiteVerdicts runs one gated verify-suite pass, in the order seed
// draws, and returns each request's refuted obligations.
func suiteVerdicts(t *testing.T, seed uint64) [][]verify.ObligationID {
	t.Helper()
	p := newSuitePath(seed, nil, false)
	if err := p.setup(); err != nil {
		t.Fatal(err)
	}
	if p.ops.failed > 0 {
		t.Fatalf("seed %d: %v", seed, p.ops.errs)
	}
	out := make([][]verify.ObligationID, len(p.reqs))
	for i := range p.reqs {
		rep, err := verify.ReportFromJSON(p.gate.ref[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rep.Failed()
	}
	return out
}

func TestSuiteVerdictsSameOnHeldOutSeed(t *testing.T) {
	dev, held := suiteVerdicts(t, 1), suiteVerdicts(t, heldOutSeed)
	for i := range dev {
		if !slices.Equal(dev[i], held[i]) {
			t.Errorf("request %d: seed 1 refutes %v, held-out seed refutes %v", i, dev[i], held[i])
		}
	}
}

// Every spelling the generator produces of one class must compile to
// the same policy components, or a "hit" would really be a miss.
func TestSpellingsShareComponentForms(t *testing.T) {
	g := newVDGen(7)
	for i := 0; i < 300; i++ {
		g.next()
	}
	for ci, c := range g.classes {
		if c.dsl == nil {
			continue
		}
		var want map[string]string
		for n := 0; n < 20; n++ {
			_, ast, err := dsl.CompileSource(c.dsl.render(g.rng))
			if err != nil {
				t.Fatalf("class %d: %v", ci, err)
			}
			forms := dsl.ComponentForms(ast)
			if want == nil {
				want = forms
			} else if !maps.Equal(forms, want) {
				t.Fatalf("class %d: spellings compile to different components:\n%v\n%v", ci, forms, want)
			}
		}
	}
}

func TestGeneratorDependsOnlyOnSeed(t *testing.T) {
	a, b, c := newVDGen(3), newVDGen(3), newVDGen(4)
	differ := false
	for i := 0; i < 200; i++ {
		ra, rb, rc := a.next(), b.next(), c.next()
		if string(ra.body) != string(rb.body) {
			t.Fatalf("submission %d differs at the same seed", i)
		}
		differ = differ || string(ra.body) != string(rc.body)
	}
	if !differ {
		t.Error("seeds 3 and 4 generate the same submissions")
	}
}
