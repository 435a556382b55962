package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	if len(asc) == 1 {
		return asc[0]
	}
	pos := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(asc) {
		hi = len(asc) - 1
	}
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median is the 50th percentile of xs in any order.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// dist summarises one metric's samples for the result envelope.
type dist struct {
	N      int     `json:"samples"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func distOf(xs []float64) dist { return distSorted(sorted(xs)) }

func distSorted(asc []float64) dist {
	return dist{N: len(asc), Q1: percentile(asc, 25), Median: percentile(asc, 50), Q3: percentile(asc, 75)}
}

// relDiff is |a-b| as a share of their mean, the A/A comparison's distance.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
