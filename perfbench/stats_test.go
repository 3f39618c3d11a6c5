package main

import (
	"math"
	"slices"
	"testing"
)

func TestQuieterKeepsTheQuietHalf(t *testing.T) {
	for _, tc := range []struct {
		shares []float64
		want   []int
	}{
		{[]float64{0.3, 0, 0.1, 0.5, 0.06}, []int{1, 2, 4}},
		{[]float64{0.2, 0.1, 0.4, 0}, []int{1, 3}},
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{[]float64{0.1, 0, 0, 0.3}, []int{1, 2}},
		{[]float64{0.7}, []int{0}},
		// Samples under cleanShare are all kept.
		{[]float64{0.01, 0.04, 0, 0.2}, []int{0, 1, 2}},
	} {
		if got := quieter(tc.shares); !slices.Equal(got, tc.want) {
			t.Errorf("quieter(%v) = %v, want %v", tc.shares, got, tc.want)
		}
	}
}

func TestInterferenceCountsOnlyOthers(t *testing.T) {
	a := cpuSnap{total: 1000, busy: 400, steal: 10, own: 1}
	// 200 ticks pass: 20 stolen, 120 busy, of which this process used
	// 0.8 s = 80 ticks.
	b := cpuSnap{total: 1200, busy: 520, steal: 30, own: 1.8}
	if got, want := interference(a, b), (20.0+40)/200; math.Abs(got-want) > 1e-9 {
		t.Errorf("interference = %v, want %v", got, want)
	}
	// Tick sampling can credit this process with more than the machine
	// counted busy; the foreign share never goes negative.
	b.own = 3
	if got, want := interference(a, b), 20.0/200; math.Abs(got-want) > 1e-9 {
		t.Errorf("interference = %v, want %v", got, want)
	}
}
