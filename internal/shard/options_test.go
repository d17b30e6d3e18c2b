package shard

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestOptionsSurface pins the exact field list of Options, so a new
// knob is a visible diff here rather than a quiet addition.
func TestOptionsSurface(t *testing.T) {
	want := []string{"Threads"}
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

// TestOptionsNormalizeRejections: a negative Threads is rejected with
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConstructorsAgree(t, tc.opts, tc.field) })
	}
}

// TestOptionsNormalizeDefaults pins the zero-value construction idiom:
// zeros select defaults, and explicit valid values survive untouched —
// no clamp rewrites them. The staging window has no knob of its own: its
// depth cap is two shards per worker of the resolved pool, whose size
// also sets each shard's task split.
func TestOptionsNormalizeDefaults(t *testing.T) {
	cases := []struct {
		name   string
		in     Options
		want   Options
		window int
	}{
		{"all-zero", Options{}, Options{}, runtime.GOMAXPROCS(0)},
		{"explicit-survives", Options{Threads: 3}, Options{Threads: 3}, 3},
		{"window-defaults-to-threads", Options{Threads: 2}, Options{Threads: 2}, 2},
		{"deep-window-survives", Options{Threads: 64}, Options{Threads: 64}, 64},
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
			g := gen.Chain(1024)
			e, err := NewEngine(createStore(t, t.TempDir(), g, 1), g, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if k := e.pool.Threads(); k != tc.window {
				t.Fatalf("pool of %d workers, want %d", k, tc.window)
			}
			if tasks, want := e.taskCount(0), min(tc.window*tasksPerWorker, e.shardUnits(0)); tasks != want {
				t.Fatalf("the one shard splits into %d tasks, want min(%d workers × %d, %d units) = %d",
					tasks, tc.window, tasksPerWorker, e.shardUnits(0), want)
			}
		})
	}
}
