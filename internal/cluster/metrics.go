package cluster

import "math"

// ARI computes the Adjusted Rand Index between two labelings (chance-
// corrected pair-counting agreement, in [-1, 1]; 1 means identical
// partitions up to relabeling). Negative labels (DBSCAN noise) are treated
// as singleton micro-clusters, the usual convention when scoring DBSCAN.
func ARI(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	a = renumber(a)
	b = renumber(b)
	ka, kb := maxLabel(a)+1, maxLabel(b)+1
	cont := make([]int, ka*kb)
	rows := make([]int, ka)
	cols := make([]int, kb)
	for i := range a {
		cont[a[i]*kb+b[i]]++
		rows[a[i]]++
		cols[b[i]]++
	}
	choose2 := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	var sumCells, sumRows, sumCols float64
	for _, c := range cont {
		sumCells += choose2(c)
	}
	for _, r := range rows {
		sumRows += choose2(r)
	}
	for _, c := range cols {
		sumCols += choose2(c)
	}
	total := choose2(len(a))
	expected := sumRows * sumCols / total
	maxIdx := (sumRows + sumCols) / 2
	if maxIdx == expected {
		return 1 // both partitions trivial (all singletons or one cluster)
	}
	return (sumCells - expected) / (maxIdx - expected)
}

// NMI computes normalized mutual information (arithmetic-mean
// normalization), in [0, 1]. Noise labels are treated as singletons.
func NMI(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	a = renumber(a)
	b = renumber(b)
	n := float64(len(a))
	ka, kb := maxLabel(a)+1, maxLabel(b)+1
	cont := make([]float64, ka*kb)
	rows := make([]float64, ka)
	cols := make([]float64, kb)
	for i := range a {
		cont[a[i]*kb+b[i]]++
		rows[a[i]]++
		cols[b[i]]++
	}
	var mi float64
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			c := cont[i*kb+j]
			if c > 0 {
				mi += c / n * math.Log(c*n/(rows[i]*cols[j]))
			}
		}
	}
	entropy := func(counts []float64) float64 {
		var h float64
		for _, c := range counts {
			if c > 0 {
				p := c / n
				h -= p * math.Log(p)
			}
		}
		return h
	}
	ha, hb := entropy(rows), entropy(cols)
	if ha == 0 && hb == 0 {
		return 1
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0
	}
	return mi / denom
}

// renumber maps arbitrary labels (including negatives) to 0..k-1, giving
// every negative label its own fresh id (noise-as-singleton convention).
func renumber(labels []int) []int {
	out := make([]int, len(labels))
	seen := map[int]int{}
	next := 0
	for i, l := range labels {
		if l < 0 {
			out[i] = next // each noise point its own cluster
			next++
			continue
		}
		id, ok := seen[l]
		if !ok {
			id = next
			next++
			seen[l] = id
		}
		out[i] = id
	}
	return out
}

func maxLabel(labels []int) int {
	m := 0
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}
