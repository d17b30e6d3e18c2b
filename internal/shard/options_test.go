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
	want := []string{"Threads", "SparseDiv", "Topology"}
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

// TestOptionsNormalizeRejections: every negative knob is rejected with
// a typed *OptionsError naming the offending field, identically by
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
		{"negative-domains", Options{Topology: sched.Topology{Domains: -3}}, "Topology.Domains"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConstructorsAgree(t, tc.opts, tc.field) })
	}
}

// TestOptionsNormalizeDefaults pins the zero-value construction idiom:
// zeros select defaults, and explicit valid values survive untouched —
// no clamp rewrites them. The staging window has no knob of its own: its
// depth cap is the resolved domain count (one apply view per domain),
// and the engine's WindowDepths histogram is sized to it.
func TestOptionsNormalizeDefaults(t *testing.T) {
	cases := []struct {
		name   string
		in     Options
		want   Options
		window int
	}{
		{"all-zero", Options{}, Options{SparseDiv: 20, Topology: sched.DefaultTopology()}, sched.DefaultTopology().Domains},
		{"explicit-survives",
			Options{Threads: 3, SparseDiv: 7, Topology: sched.Topology{Domains: 2}},
			Options{Threads: 3, SparseDiv: 7, Topology: sched.Topology{Domains: 2}}, 2},
		{"window-defaults-to-domains",
			Options{Topology: sched.Topology{Domains: 3}},
			Options{SparseDiv: 20, Topology: sched.Topology{Domains: 3}}, 3},
		{"deep-window-survives",
			Options{Threads: 2, Topology: sched.Topology{Domains: 64}},
			Options{Threads: 2, SparseDiv: 20, Topology: sched.Topology{Domains: 64}}, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkConstructorsAgree(t, tc.in, "")
			got, err := tc.in.normalize()
			if err != nil {
				t.Fatalf("normalize(%+v): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
			g := gen.Chain(64)
			e, err := NewEngine(createStore(t, t.TempDir(), g, 4), g, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if k, hist := len(e.domains), len(e.Stats().WindowDepths)-1; k != tc.window || hist != tc.window {
				t.Fatalf("window depth cap %d (histogram up to %d), want %d", k, hist, tc.window)
			}
		})
	}
}
