package main

import (
	"fmt"
	"math"
	"slices"
)

// metric is one reported figure. note carries the percentile and sample
// count of a tail, or why a metric does not apply to a workload.
type metric struct {
	name, unit string
	value      float64
	note       string
	na         bool // not measured on this workload
}

func m(name, unit string, v float64) metric { return metric{name: name, unit: unit, value: v} }

func na(name, unit, why string) metric {
	return metric{name: name, unit: unit, note: why, na: true}
}

// samples is a preallocated series of durations or sizes.
type samples []float64

func newSamples(capacity int) samples { return make(samples, 0, capacity) }

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of s. It
// sorts s in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// tailLadder lists the percentiles a _tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 50}

// tailPct picks the highest ladder percentile that leaves at least ten
// samples beyond it when a run takes minN samples. Choosing it from the
// run's guaranteed minimum, not its actual count, keeps the percentile
// the same on every run of a workload.
func tailPct(minN int) float64 {
	for _, p := range tailLadder {
		if float64(minN)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// tail reports s's tail metric at the percentile minN allows.
func (s samples) tail(name, unit string, minN int) metric {
	p := tailPct(minN)
	out := m(name, unit, s.quantile(p/100))
	beyond := len(s) - int(math.Ceil(p/100*float64(len(s))))
	out.note = fmt.Sprintf("p%g of %d samples, %d beyond", p, len(s), beyond)
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
