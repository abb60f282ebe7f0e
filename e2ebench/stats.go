package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist is a set of samples of one quantity.
type dist []float64

// percentile returns the nearest-rank q-quantile (0 < q < 1). It refuses
// when fewer than minBeyond samples lie beyond that rank, so a p99 needs
// at least 1000 samples.
func (d dist) percentile(q float64) (float64, error) {
	n := len(d)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func (d dist) max() float64 {
	m := math.Inf(-1)
	for _, v := range d {
		m = math.Max(m, v)
	}
	return m
}

// median of a small set, such as the set-up repetitions of one run.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile (0 for other figures).
	n int
}

// report collects a run's figures by name, and why each figure that could
// not be derived was refused.
type report struct {
	m       map[string]metric
	refused map[string]error
}

func newReport() *report {
	return &report{m: make(map[string]metric), refused: make(map[string]error)}
}

func (r *report) set(name string, v float64, unit string) {
	r.m[name] = metric{Value: v, Unit: unit}
}

// pct records the q-quantile of d, or why it was refused.
func (r *report) pct(name string, d dist, q float64, unit string) {
	v, err := d.percentile(q)
	if err != nil {
		r.refused[name] = err
		return
	}
	r.m[name] = metric{Value: v, Unit: unit, n: len(d)}
}

// get returns the figure called name, or why it was not produced. Only
// the figures a run emits are looked up, so a refusal of any other
// figure never fails the run.
func (r *report) get(name string) (metric, error) {
	if m, ok := r.m[name]; ok {
		return m, nil
	}
	if err, ok := r.refused[name]; ok {
		return metric{}, fmt.Errorf("%s: %w", name, err)
	}
	return metric{}, fmt.Errorf("figure %s was not produced", name)
}
