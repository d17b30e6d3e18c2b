package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method). It needs
// at least two values; ok is false otherwise.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return (cut(3) - cut(1)) / med, true
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) row(name string) *workloadReport {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

func values(runs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[metric])
	}
	return xs
}

// compareMain implements `benchmark compare a.json b.json`: a is the
// base, b the candidate. Per (end-to-end metric, workload) it prints
// both medians over the reports' runs, the change relative to a, the
// bound, and a verdict: unresolved when either side's own quartile
// spread is wider than the bound, regressed when b is worse than a by
// more than the bound, ok otherwise. It then lists every exact-count
// layer metric of the single-client workloads that differs, when both
// reports traced the same seed (the counts are a property of the input).
// The exit code is 1 if anything regressed or an exact count differs.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.json candidate.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		r, err := loadReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		reps[i] = r
	}
	return compareReports(reps[0], reps[1])
}

func compareReports(a, b *report) int {
	bad := 0
	fmt.Printf("%-16s %-14s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base", "candidate", "change", "bound", "spread_a", "spread_b", "verdict")
	for _, w := range workloads {
		ra, rb := a.row(w.name), b.row(w.name)
		if ra == nil || rb == nil {
			fmt.Printf("%-16s missing from a report\n", w.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			xa, xb := values(ra.Runs, d.name), values(rb.Runs, d.name)
			ma, mb := median(xa), median(xb)
			change := (mb - ma) / ma // relative to the base's median
			worse := change
			if d.better == "higher" {
				worse = -change
			}
			sa, oka := quartileSpread(xa)
			sb, okb := quartileSpread(xb)
			verdict := "ok"
			switch {
			case (oka && sa > d.bound) || (okb && sb > d.bound):
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				bad++
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s (n=%d,%d; change is of base %.4f %s)\n",
				w.name, d.name, ma, mb, 100*change, 100*d.bound, 100*sa, 100*sb, verdict, len(xa), len(xb), ma, d.unit)
		}
	}
	for _, w := range workloads {
		ra, rb := a.row(w.name), b.row(w.name)
		if w.multi || ra == nil || rb == nil || ra.Layers == nil || rb.Layers == nil {
			continue
		}
		if ra.Layers.Seed != rb.Layers.Seed {
			fmt.Printf("%-16s exact counts not compared: traced on seed %d and on seed %d\n", w.name, ra.Layers.Seed, rb.Layers.Seed)
			continue
		}
		for _, d := range perLayer {
			va, vb := ra.Layers.Metrics[d.name], rb.Layers.Metrics[d.name]
			if d.exact && va != vb {
				fmt.Printf("%-16s %s differs: %v -> %v %s\n", w.name, d.name, va, vb, d.unit)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
