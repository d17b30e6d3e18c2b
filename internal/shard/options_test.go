package shard

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

// TestOptionsSurface pins the exact field list of Options, so a new
// knob is a visible diff here rather than a quiet addition.
func TestOptionsSurface(t *testing.T) {
	want := []string{"Threads", "SparseDiv", "Window", "IODepth", "Topology", "Order", "SweepMode", "BinBudgetBytes"}
	var got []string
	for i, typ := 0, reflect.TypeOf(Options{}); i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard.Options fields are %v, want exactly %v", got, want)
	}
}

// checkConstructorsAgree asserts that Validate, NewEngine and NewHost
// give the same verdict on opts — and, on a rejection, the same typed
// error naming the same field.
func checkConstructorsAgree(t *testing.T, opts Options, field string) {
	t.Helper()
	g := gen.Chain(64)
	st := createStore(t, t.TempDir(), g, 4)
	_, engineErr := NewEngine(st, g, opts)
	_, hostErr := NewHost(st, g, NewSharedCache(1<<20), opts)
	for name, err := range map[string]error{"Validate": opts.Validate(), "NewEngine": engineErr, "NewHost": hostErr} {
		if field == "" {
			if err != nil {
				t.Fatalf("%s(%+v) = %v, want accepted", name, opts, err)
			}
			continue
		}
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Fatalf("%s(%+v) returned %T (%v), want *OptionsError", name, opts, err, err)
		}
		if oe.Field != field {
			t.Fatalf("%s names field %q, want %q (%v)", name, oe.Field, field, err)
		}
		if !strings.Contains(err.Error(), "shard: invalid Options."+field) {
			t.Fatalf("%s error text %q lacks the canonical prefix", name, err)
		}
	}
}

// TestOptionsNormalizeRejections: every negative knob, every unknown
// enum value and the one contradictory combination is rejected with a
// typed *OptionsError naming the offending field, identically by
// Validate and by both constructors — construction-time validation, not
// a mid-sweep surprise.
func TestOptionsNormalizeRejections(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative-threads", Options{Threads: -1}, "Threads"},
		{"negative-sparsediv", Options{SparseDiv: -1}, "SparseDiv"},
		{"negative-window", Options{Window: -4}, "Window"},
		{"negative-iodepth", Options{IODepth: -1}, "IODepth"},
		{"negative-domains", Options{Topology: sched.Topology{Domains: -3}}, "Topology.Domains"},
		{"window-narrower-than-iodepth", Options{Window: 2, IODepth: 4}, "Window"},
		{"negative-order", Options{Order: -1}, "Order"},
		{"unknown-order", Options{Order: 99}, "Order"},
		{"negative-sweepmode", Options{SweepMode: -1}, "SweepMode"},
		{"unknown-sweepmode", Options{SweepMode: 7}, "SweepMode"},
		{"scattergather-window-under-iodepth", Options{SweepMode: SweepScatterGather, Window: 1, IODepth: 2}, "Window"},
		{"negative-bin-budget", Options{SweepMode: SweepScatterGather, BinBudgetBytes: -1}, "BinBudgetBytes"},
		{"bin-budget-below-minimum", Options{SweepMode: SweepScatterGather, BinBudgetBytes: MinBinBudgetBytes - 1}, "BinBudgetBytes"},
		{"bin-budget-edge-centric", Options{BinBudgetBytes: MinBinBudgetBytes}, "BinBudgetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConstructorsAgree(t, tc.opts, tc.field) })
	}
}

// TestOptionsNormalizeDefaults pins the zero-value construction idiom:
// zeros select defaults, Window defaults to max(Domains, IODepth), and
// explicit valid values survive untouched — no clamp rewrites them.
func TestOptionsNormalizeDefaults(t *testing.T) {
	domains := sched.DefaultTopology().Domains
	cases := []struct {
		name            string
		in              Options
		iodepth, window int
	}{
		{"all-zero", Options{}, 1, domains},
		{"window-defaults-to-iodepth", Options{IODepth: 3, Topology: sched.Topology{Domains: 2}}, 3, 3},
		{"window-defaults-to-domains", Options{IODepth: 2}, 2, domains},
		{"explicit-survives", Options{Window: 4, IODepth: 2}, 2, 4},
		{"deep-window-survives", Options{Window: 64}, 1, 64},
		{"iodepth-past-domains", Options{IODepth: 2, Topology: sched.Topology{Domains: 8}}, 2, 8},
		// Scatter/gather inherits the same window/IODepth resolution —
		// the mode changes the apply, not the staging pipeline.
		{"scattergather-all-defaults", Options{SweepMode: SweepScatterGather}, 1, domains},
		{"scattergather-iodepth-survives", Options{SweepMode: SweepScatterGather, IODepth: 3, Topology: sched.Topology{Domains: 2}}, 3, 3},
		{"scattergather-minimum-bin-budget", Options{SweepMode: SweepScatterGather, BinBudgetBytes: MinBinBudgetBytes}, 1, domains},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkConstructorsAgree(t, tc.in, "")
			got, err := tc.in.normalize()
			if err != nil {
				t.Fatalf("normalize(%+v): %v", tc.in, err)
			}
			if got.IODepth != tc.iodepth || got.Window != tc.window {
				t.Fatalf("normalize(%+v) = IODepth %d, Window %d; want %d, %d",
					tc.in, got.IODepth, got.Window, tc.iodepth, tc.window)
			}
			if got.SparseDiv != 20 && tc.in.SparseDiv == 0 {
				t.Fatalf("normalize(%+v) left SparseDiv at %d, want the paper's 20", tc.in, got.SparseDiv)
			}
		})
	}
}
